package wal

import (
	"fmt"

	"ptsbench/internal/extfs"
	"ptsbench/internal/sim"
)

// Slots is an engine's root record — the LSM's manifest, a tree's
// checkpoint metadata — kept in two files that alternate like a
// double-buffered superblock: generation g is written to slot (g+1)%2,
// so a torn write damages at most the newer copy and a read falls back
// to the older one. Each engine keeps its own byte format; decode
// parses one slot's pages and reports the generation they hold.
type Slots[T any] struct {
	fs     *extfs.FS
	names  [2]string
	what   string
	decode func([]byte) (*T, uint64, error)
}

// NewSlots returns the slot pair "<prefix>-A"/"<prefix>-B". what names
// the record in errors ("lsm: manifest").
func NewSlots[T any](fs *extfs.FS, prefix, what string, decode func([]byte) (*T, uint64, error)) Slots[T] {
	return Slots[T]{fs: fs, names: [2]string{prefix + "-A", prefix + "-B"}, what: what, decode: decode}
}

// Write rewrites generation gen's slot in place — odd generations land
// in "-A", even ones in "-B" — with pages pages of data (nil in
// accounting mode), creating and growing the file as needed, and
// returns the write's completion time.
func (s Slots[T]) Write(now sim.Duration, gen uint64, pages int, data []byte) (sim.Duration, error) {
	name := s.names[(gen+1)%2]
	f, err := s.fs.Open(name)
	if err != nil {
		if f, err = s.fs.Create(name); err != nil {
			return now, err
		}
	}
	if need := int64(pages) - f.SizePages(); need > 0 {
		if err := f.Grow(need); err != nil {
			return now, err
		}
	}
	return f.WriteAt(now, 0, pages, data)
}

// Read returns the newest record either slot decodes, or nil when
// neither holds one. A nil result without an error means bootstrap is
// legitimate: slots missing, or existing but all-zero — which is what a
// first write's torn slot leaves behind. When both slots exist, neither
// decodes and at least one holds non-zero bytes, the record is corrupt
// (bit rot or a scribble — no power cut this stack models can produce
// it, since the alternating writes never tear both generations at
// once), and Read fails loudly instead of letting the engine bootstrap
// an empty store over real data.
func (s Slots[T]) Read(now sim.Duration) (*T, sim.Duration, error) {
	var best *T
	var bestGen uint64
	slots, garbled := 0, 0
	for _, name := range s.names {
		f, err := s.fs.Open(name)
		if err != nil {
			continue
		}
		slots++
		buf := make([]byte, f.SizePages()*int64(s.fs.PageSize()))
		if now, err = f.ReadAt(now, 0, int(f.SizePages()), buf); err != nil {
			return nil, now, err
		}
		v, gen, err := s.decode(buf)
		if err != nil {
			if !allZero(buf) {
				garbled++
			}
			continue
		}
		if best == nil || gen > bestGen {
			best, bestGen = v, gen
		}
	}
	if best == nil && slots == 2 && garbled > 0 {
		return nil, now, fmt.Errorf("%s corrupt in both slots", s.what)
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
