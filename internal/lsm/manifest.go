package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strconv"
	"strings"

	"ptsbench/internal/extfs"
	"ptsbench/internal/sim"
	"ptsbench/internal/sstable"
)

// The manifest records the current version — the SST files of every
// level, in order — so that a database can be reopened after a crash.
// It lives in the wal.Slots pair MANIFEST-A/MANIFEST-B: a torn write
// corrupts at most the newer copy, recovery falls back to the older
// one, and corruption of both is a loud error. Each write carries a
// monotonically increasing generation (writeSeq) and a CRC.

const manifestMagic = 0x4D414E49 // "MANI"

// manifestState is the serialized version metadata.
type manifestState struct {
	writeSeq   uint64 // manifest generation
	seq        uint64 // KV sequence number high-water mark
	flushedSeq uint64 // highest seq covered by a table named below
	nextFileID uint64
	walID      uint64
	levels     [][]string // file names per level
}

func (m *manifestState) encode() []byte {
	var b []byte
	var tmp [8]byte
	put32 := func(v uint32) {
		binary.LittleEndian.PutUint32(tmp[:4], v)
		b = append(b, tmp[:4]...)
	}
	put64 := func(v uint64) {
		binary.LittleEndian.PutUint64(tmp[:], v)
		b = append(b, tmp[:]...)
	}
	putStr := func(s string) {
		put32(uint32(len(s)))
		b = append(b, s...)
	}
	put32(manifestMagic)
	put64(m.writeSeq)
	put64(m.seq)
	put64(m.flushedSeq)
	put64(m.nextFileID)
	put64(m.walID)
	put32(uint32(len(m.levels)))
	for _, lvl := range m.levels {
		put32(uint32(len(lvl)))
		for _, name := range lvl {
			putStr(name)
		}
	}
	crc := crc32.ChecksumIEEE(b)
	put32(crc)
	return b
}

func decodeManifest(b []byte) (*manifestState, error) {
	if len(b) < 4+8*5+4+4 {
		return nil, fmt.Errorf("lsm: manifest too short")
	}
	// Find the payload length by re-walking; CRC is the last 4 bytes of
	// the payload region, so walk fields first.
	off := 0
	get32 := func() (uint32, error) {
		if off+4 > len(b) {
			return 0, fmt.Errorf("lsm: manifest truncated")
		}
		v := binary.LittleEndian.Uint32(b[off:])
		off += 4
		return v, nil
	}
	get64 := func() (uint64, error) {
		if off+8 > len(b) {
			return 0, fmt.Errorf("lsm: manifest truncated")
		}
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v, nil
	}
	magic, err := get32()
	if err != nil || magic != manifestMagic {
		return nil, fmt.Errorf("lsm: bad manifest magic")
	}
	m := &manifestState{}
	if m.writeSeq, err = get64(); err != nil {
		return nil, err
	}
	if m.seq, err = get64(); err != nil {
		return nil, err
	}
	if m.flushedSeq, err = get64(); err != nil {
		return nil, err
	}
	if m.nextFileID, err = get64(); err != nil {
		return nil, err
	}
	if m.walID, err = get64(); err != nil {
		return nil, err
	}
	nLevels, err := get32()
	if err != nil || nLevels > 64 {
		return nil, fmt.Errorf("lsm: bad level count")
	}
	for li := uint32(0); li < nLevels; li++ {
		count, err := get32()
		if err != nil || count > 1<<20 {
			return nil, fmt.Errorf("lsm: bad file count")
		}
		var lvl []string
		for i := uint32(0); i < count; i++ {
			n, err := get32()
			if err != nil || int(n) > len(b)-off {
				return nil, fmt.Errorf("lsm: bad name length")
			}
			lvl = append(lvl, string(b[off:off+int(n)]))
			off += int(n)
		}
		m.levels = append(m.levels, lvl)
	}
	want, err := get32()
	if err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(b[:off-4]) != want {
		return nil, fmt.Errorf("lsm: manifest CRC mismatch")
	}
	return m, nil
}

// decodeSlot is decodeManifest as wal.Slots reads a slot.
func decodeSlot(b []byte) (*manifestState, uint64, error) {
	m, err := decodeManifest(b)
	if err != nil {
		return nil, 0, err
	}
	return m, m.writeSeq, nil
}

// manifestEncodedLen returns the exact byte length manifestState.encode
// would produce for the current tree, without building it — the
// accounting-mode write path needs only the page count.
func (d *DB) manifestEncodedLen() int {
	n := 4 + 8 + 8 + 8 + 8 + 8 + 4 + 4 // magic, write/seq/flushed/file/wal ids, level count, crc
	for _, lvl := range d.levels {
		n += 4
		for _, t := range lvl {
			n += 4 + len(t.FileName())
		}
	}
	return n
}

// writeManifest persists the current version into the older of the two
// manifest slots and returns the completion time.
func (d *DB) writeManifest(now sim.Duration) (sim.Duration, error) {
	d.manifestSeq++
	ps := d.fs.PageSize()
	var pages int
	var data []byte
	if d.cfg.Content {
		st := manifestState{
			writeSeq:   d.manifestSeq,
			seq:        d.seq,
			flushedSeq: d.flushedSeq,
			nextFileID: d.nextFileID,
			walID:      d.log.ID(),
		}
		for _, lvl := range d.levels {
			names := make([]string, 0, len(lvl))
			for _, t := range lvl {
				names = append(names, t.FileName())
			}
			st.levels = append(st.levels, names)
		}
		payload := st.encode()
		pages = (len(payload) + ps - 1) / ps
		data = make([]byte, pages*ps)
		copy(data, payload)
	} else {
		// Accounting mode: the manifest bytes are never read back, so
		// only the encoded length (and therefore the page count) is
		// charged — no serialization buffers.
		pages = (d.manifestEncodedLen() + ps - 1) / ps
	}
	return d.manifest.Write(now, d.manifestSeq, pages, data)
}

// Recover reopens a database from its on-device state: the newest valid
// manifest names the SST files of every level, each table is re-parsed
// from disk, and surviving WAL segments are replayed into a fresh
// memtable. It requires content mode (the block device must retain
// bytes). The returned time includes all recovery I/O — the cost a real
// engine pays to restart.
func Recover(fs *extfs.FS, cfg Config, rng *sim.RNG, now sim.Duration) (*DB, sim.Duration, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, now, err
	}
	if !cfg.Content {
		return nil, now, fmt.Errorf("lsm: Recover requires content mode")
	}
	d := newDB(fs, cfg, rng)
	st, now, err := d.manifest.Read(now)
	if err != nil {
		return nil, now, err
	}
	if st == nil {
		// The database died before its first flush committed a manifest:
		// the synced WAL is the only durable state. Recover from a zero
		// manifest — every surviving SST is an orphan (removed below),
		// the WAL rescan rebuilds the memtable and id counters, and the
		// closing recovery flush writes the first real manifest.
		st = &manifestState{}
	}
	d.seq, d.flushedSeq = st.seq, st.flushedSeq
	d.nextFileID, d.manifestSeq = st.nextFileID, st.writeSeq
	// Reopen every table named by the manifest.
	for li, names := range st.levels {
		if li >= len(d.levels) {
			return nil, now, fmt.Errorf("lsm: manifest has more levels than config")
		}
		for _, name := range names {
			f, err := fs.Open(name)
			if err != nil {
				return nil, now, fmt.Errorf("lsm: manifest names missing file %s: %w", name, err)
			}
			t, done, err := sstable.OpenFromFile(f, fs.PageSize(), now)
			if err != nil {
				return nil, now, err
			}
			now = done
			// Bind the footer's embedded table id to the file name. The
			// two are minted together at build time, so a mismatch means
			// the file holds a DIFFERENT table's bytes: its own flushed
			// image was acknowledged by the device but never persisted
			// (fsync lie) and recovery is reading whatever stale table
			// previously occupied those extents. The image parses cleanly
			// — only this binding catches it. Refuse loudly.
			if want, perr := strconv.ParseUint(strings.TrimPrefix(name, "sst-"), 10, 64); perr == nil && t.ID != want {
				return nil, now, fmt.Errorf(
					"lsm: table %s carries embedded id %d: device dropped an acknowledged write (fsync lie or misdirect) and the file holds a stale table image",
					name, t.ID)
			}
			d.levels[li] = append(d.levels[li], t)
			d.levelBytes[li] += t.SizeBytes()
		}
	}
	d.shapeChanged()
	// Replay the surviving WAL segments. Records at or below the
	// manifest's flushedSeq mark are skipped: they already live in a
	// table named above, and — crucially — a recycled segment whose
	// zeroing write was lost in the crash replays its previous
	// generation, whose stale records must not shadow the newer table
	// state.
	records, now, err := d.log.Recover(now, st.walID, st.flushedSeq)
	if err != nil {
		return nil, now, err
	}
	// SST names can outrun the recovered manifest the way segment names
	// can (see wal.Log.Recover): advance the file-id counter past every
	// survivor so a fresh name cannot collide (ErrExist), and remove the
	// orphans no manifest level names — any live data they held is
	// covered by the WAL replay.
	tracked := make(map[string]bool)
	for _, lvl := range st.levels {
		for _, name := range lvl {
			tracked[name] = true
		}
	}
	for _, name := range fs.List() {
		if !strings.HasPrefix(name, "sst-") {
			continue
		}
		if id, perr := strconv.ParseUint(name[len("sst-"):], 10, 64); perr == nil && id > d.nextFileID {
			d.nextFileID = id
		}
		if !tracked[name] {
			if err := fs.Remove(name); err != nil {
				return nil, now, err
			}
		}
	}
	for i := range records {
		r := &records[i]
		d.mem.Put(r.Key, r.Value, r.ValueLen, r.Seq, r.Deleted)
		if r.Seq > d.seq {
			d.seq = r.Seq
		}
	}
	// Fresh active WAL segment, then make the replayed records durable
	// again (flush the recovered memtable) before the old segments are
	// retired — the same avoid-flush-during-recovery=false discipline
	// RocksDB defaults to. A segment the recovery flush recycled stays
	// in the pool.
	if err := d.log.Start(); err != nil {
		return nil, now, err
	}
	if d.mem.Len() > 0 {
		if err := d.rotateMemtable(); err != nil {
			return nil, now, err
		}
		if end := d.flushW.RunUntilDrained(); end > now {
			now = end
		}
		if d.fatal != nil {
			return nil, now, d.fatal
		}
	}
	if err := d.log.Retire(); err != nil {
		return nil, now, err
	}
	return d, now, nil
}
