package sstable

// maxSpares bounds each column's free list. A full list keeps the larger
// of a released array and its smallest, so it holds the arrays the
// largest tables need without growing with the number of tables a
// compaction removes.
const maxSpares = 16

// Spares is a free list of side-index arrays, one per column. A DB keeps
// one for all its tables: Release returns a removed table's arrays,
// NewBuilder and the lazy Bloom build take the smallest retained array
// that fits. Best fit keeps a live table's arrays close to its size.
// data holds content-mode builders' serialization scratch, which Finish
// returns. Spares is not safe for concurrent use.
type Spares struct {
	keyArena, dels, bloom, valArena, data freeList[byte]
	keyOffsets, vlens, valOffsets         freeList[uint32]
	seqs                                  freeList[uint64]
	blocks                                freeList[blockMeta]
}

// freeList holds up to maxSpares empty arrays of one column.
type freeList[T any] struct {
	arrays [][]T
}

// take returns an empty slice with room for n elements: the smallest
// retained array that fits, or a new one.
func (l *freeList[T]) take(n int) []T {
	if a, ok := l.pop(n); ok {
		return a
	}
	return make([]T, 0, n)
}

// pop removes and returns the smallest retained array with room for n
// elements, if there is one.
func (l *freeList[T]) pop(n int) ([]T, bool) {
	best := -1
	for i, a := range l.arrays {
		if cap(a) >= n && (best < 0 || cap(a) < cap(l.arrays[best])) {
			best = i
		}
	}
	if best < 0 {
		return nil, false
	}
	a := l.arrays[best]
	last := len(l.arrays) - 1
	l.arrays[best] = l.arrays[last]
	l.arrays[last] = nil
	l.arrays = l.arrays[:last]
	return a, true
}

// put retains s's array; a full list replaces its smallest array when
// s's is larger.
func (l *freeList[T]) put(s []T) {
	if cap(s) == 0 {
		return
	}
	if len(l.arrays) < maxSpares {
		l.arrays = append(l.arrays, s[:0])
		return
	}
	small := 0
	for i, a := range l.arrays {
		if cap(a) < cap(l.arrays[small]) {
			small = i
		}
	}
	if cap(s) > cap(l.arrays[small]) {
		l.arrays[small] = s[:0]
	}
}

// grow returns s with room for n more elements. A full s moves into the
// smallest retained array that fits, or into a new one of twice its
// capacity, and goes back to l.
func (l *freeList[T]) grow(s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	g, ok := l.pop(len(s) + n)
	if !ok {
		g = make([]T, 0, max(2*cap(s), len(s)+n))
	}
	g = append(g, s...)
	l.put(s)
	return g
}

// Release returns the table's side-index arrays to the Spares it was
// built with. The table, and every key and value read from it, must not
// be used again: it keeps only its ID and entry count, so a lookup fails
// loudly instead of answering as an empty table. A table opened from a
// file has no Spares; its arrays are left to the garbage collector.
func (t *Table) Release() {
	if s := t.spares; s != nil {
		s.keyArena.put(t.keyArena)
		s.keyOffsets.put(t.keyOffsets)
		s.seqs.put(t.seqs)
		s.vlens.put(t.vlens)
		s.dels.put(t.dels)
		s.blocks.put(t.blocks)
		s.bloom.put(t.bloom.bits)
		s.valArena.put(t.valArena)
		s.valOffsets.put(t.valOffsets)
	}
	*t = Table{ID: t.ID, numEntries: t.numEntries}
}
