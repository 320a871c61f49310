package cowtree

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ptsbench/internal/extfs"
	"ptsbench/internal/sim"
)

// Checkpoint metadata: a double-buffered pair of tiny files records the
// root node's on-disk extent and the sequence high-water mark of the
// last completed checkpoint. Recovery parses the tree from the root and
// replays the surviving journal segments on top. The layout (and each
// engine's magic and file names) is exactly what the engines wrote
// before the extraction, so existing on-device state stays readable.

// metaBytes is the encoded metadata size:
// magic(4) + gen(8) + seq(8) + rootStart(8) + rootPages(4) +
// journalID(8) + crc(4).
const metaBytes = 4 + 8 + 8 + 8 + 4 + 8 + 4

// Meta is one decoded checkpoint metadata record.
type Meta struct {
	Gen       uint64 // checkpoint generation
	Seq       uint64 // KV sequence high-water mark at checkpoint
	JournalID uint64
	Root      Extent
}

// EncodeMeta serializes a metadata record under the given magic.
func EncodeMeta(m *Meta, magic uint32) []byte {
	b := make([]byte, metaBytes)
	putMeta(b, m, magic)
	return b
}

// putMeta encodes m into b[:metaBytes].
func putMeta(b []byte, m *Meta, magic uint32) {
	binary.LittleEndian.PutUint32(b[0:], magic)
	binary.LittleEndian.PutUint64(b[4:], m.Gen)
	binary.LittleEndian.PutUint64(b[12:], m.Seq)
	binary.LittleEndian.PutUint64(b[20:], uint64(m.Root.Start))
	binary.LittleEndian.PutUint32(b[28:], uint32(m.Root.Pages))
	binary.LittleEndian.PutUint64(b[32:], m.JournalID)
	binary.LittleEndian.PutUint32(b[40:], crc32.ChecksumIEEE(b[:40]))
}

// DecodeMeta parses a metadata record, verifying magic and CRC. name
// tags errors with the owning engine.
func DecodeMeta(b []byte, magic uint32, name string) (*Meta, error) {
	if len(b) < metaBytes {
		return nil, fmt.Errorf("%s: metadata too short", name)
	}
	if binary.LittleEndian.Uint32(b[0:]) != magic {
		return nil, fmt.Errorf("%s: bad metadata magic", name)
	}
	if crc32.ChecksumIEEE(b[:40]) != binary.LittleEndian.Uint32(b[40:]) {
		return nil, fmt.Errorf("%s: metadata CRC mismatch", name)
	}
	return &Meta{
		Gen:       binary.LittleEndian.Uint64(b[4:]),
		Seq:       binary.LittleEndian.Uint64(b[12:]),
		JournalID: binary.LittleEndian.Uint64(b[32:]),
		Root: Extent{
			Start: int64(binary.LittleEndian.Uint64(b[20:])),
			Pages: int64(binary.LittleEndian.Uint32(b[28:])),
		},
	}, nil
}

// metaSlots names the two metadata slot files; generation g is written
// to slot (g+1)%2, so odd generations land in "-A" and even ones in "-B".
func metaSlots(prefix string) [2]string {
	return [2]string{prefix + "-A", prefix + "-B"}
}

// writeMeta persists the checkpoint metadata into the older slot,
// recording floor as the recovery floor. A root that was never written
// (e.g. an empty-tree checkpoint) leaves nothing durable to point at
// yet, so the write declines silently.
//
// Checkpoint jobs pass the snapshot-time sequence rather than the
// commit-time one: updates that arrived while the job ran live in the NEW
// journal segment (rotated at snapshot), which is not covered by this
// checkpoint, so a commit-time floor would falsely implicate
// legitimately-lost unsynced journal records. The snapshot floor is
// exactly what the tree image guarantees, so recovery can assert it
// loudly (see each engine's Recover) and any shortfall convicts the
// device of lying about fsync.
func (c *Core) writeMeta(now sim.Duration, floor uint64) (sim.Duration, error) {
	disk := c.nodes[c.root].Disk
	if disk.Pages == 0 {
		return now, nil
	}
	c.metaGen++
	m := Meta{Gen: c.metaGen, Seq: floor, JournalID: c.journalID, Root: disk}
	name := c.metaSlots[(c.metaGen+1)%2]
	f, err := c.fs.Open(name)
	if err != nil {
		if f, err = c.fs.Create(name); err != nil {
			return now, err
		}
		if err := f.Grow(1); err != nil {
			return now, err
		}
	}
	var data []byte
	if c.cfg.Content {
		if c.metaBuf == nil {
			c.metaBuf = make([]byte, c.fs.PageSize())
		}
		data = c.metaBuf
		putMeta(data, &m, c.cfg.MetaMagic)
	}
	return f.WriteAt(now, 0, 1, data)
}

// ReadMeta loads the newest valid checkpoint metadata from the
// double-buffered slot pair, or nil when neither slot holds one. A nil
// result without an error means bootstrap is legitimate: slots missing,
// or existing but all-zero — which is what a first checkpoint's torn
// slot write leaves behind. When both slots exist, neither decodes and
// at least one holds non-zero bytes, the metadata is corrupt (bit rot
// or a scribble — no power cut this stack models can produce it, since
// the alternating slot writes never tear both generations at once), and
// ReadMeta fails loudly instead of silently bootstrapping an empty tree
// over real data.
func ReadMeta(fs *extfs.FS, prefix string, magic uint32, name string, now sim.Duration) (*Meta, sim.Duration, error) {
	var best *Meta
	slots, garbled := 0, 0
	for _, slot := range metaSlots(prefix) {
		f, err := fs.Open(slot)
		if err != nil {
			continue
		}
		slots++
		buf := make([]byte, f.SizePages()*int64(fs.PageSize()))
		now, err = f.ReadAt(now, 0, int(f.SizePages()), buf)
		if err != nil {
			return nil, now, err
		}
		m, err := DecodeMeta(buf, magic, name)
		if err != nil {
			if !allZero(buf) {
				garbled++
			}
			continue
		}
		if best == nil || m.Gen > best.Gen {
			best = m
		}
	}
	if best == nil && slots == 2 && garbled > 0 {
		return nil, now, fmt.Errorf("%s: checkpoint metadata corrupt in both slots", name)
	}
	return best, now, nil
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}
