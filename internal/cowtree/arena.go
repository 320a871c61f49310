package cowtree

import "math/bits"

// Arena is a chunked byte allocator for the small immortal byte slices
// the tree engines retain — key copies taken at the Put boundary and
// separator keys. The engines' node structures never free individual
// keys (ids and nodes are immortal in the simulation's memory model),
// so a bump allocator turns the dominant steady-state allocation — one
// heap object per fresh key — into one chunk allocation per ~4096 keys.
// A nil-safe zero value is ready to use.
type Arena struct {
	chunk []byte
}

// arenaChunkBytes is the bump-chunk size. Large enough to amortize the
// chunk allocation to noise, small enough that a mostly-idle tree does
// not strand much memory.
const arenaChunkBytes = 64 << 10

// Clone copies b into the arena, preserving nil.
func (a *Arena) Clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := a.Alloc(len(b))
	copy(out, b)
	return out
}

// Alloc returns a zeroed n-byte slice carved from the arena. Slices with
// n larger than the chunk size get their own allocation.
func (a *Arena) Alloc(n int) []byte {
	if n > arenaChunkBytes {
		return make([]byte, n)
	}
	if len(a.chunk) < n {
		a.chunk = make([]byte, arenaChunkBytes)
	}
	out := a.chunk[:n:n]
	a.chunk = a.chunk[n:]
	return out
}

// Pool recycles slices of T by power-of-two capacity class. The
// engines' leaf-entry and message arrays churn constantly — every
// append past capacity retires one array, every leaf split demands a
// fresh one — and that churn was the dominant byte source feeding the
// GC once per-key allocations moved to the arena. Retired arrays keep
// their contents (the pointers they hold are arena-backed and immortal
// anyway); Get never clears, so every caller must fully overwrite the
// returned prefix. Arrays of the small classes are carved out of shared
// chunks: a tree that sizes its arrays to what they hold (the Bε-tree's
// per-child buffers) asks for tens of thousands of them, and one heap
// object each would put that count straight into allocs/op.
type Pool[T any] struct {
	classes [32][][]T
	chunk   []T // uncarved rest of the newest small-array chunk
}

const (
	// poolCarveSlots is the largest capacity carved from a chunk; larger
	// arrays get their own allocation.
	poolCarveSlots = 128
	// poolChunkSlots is the chunk size: eight of the largest carved
	// arrays, a thousand of the smallest.
	poolChunkSlots = 1024
)

// Get returns a slice of length n whose capacity is the next power of
// two >= n, reusing a retired array of that class when available.
func (p *Pool[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	c := bits.Len(uint(n - 1))
	if s := p.classes[c]; len(s) > 0 {
		out := s[len(s)-1]
		s[len(s)-1] = nil
		p.classes[c] = s[:len(s)-1]
		return out[:n]
	}
	size := 1 << c
	if size > poolCarveSlots {
		return make([]T, n, size)
	}
	if len(p.chunk) < size {
		p.chunk = make([]T, poolChunkSlots)
	}
	out := p.chunk[:n:size] // capacity-limited: appends cannot reach the neighbour
	p.chunk = p.chunk[size:]
	return out
}

// Put retires a slice's backing array for reuse. The caller must not
// touch s afterwards. Arrays land in the largest class their capacity
// can fully serve.
func (p *Pool[T]) Put(s []T) {
	c := cap(s)
	if c == 0 {
		return
	}
	k := bits.Len(uint(c)) - 1
	p.classes[k] = append(p.classes[k], s[:0])
}

// GrowInsert inserts e at position i of s (0 <= i <= len(s)), growing
// through the pool when capacity is exhausted so the displaced array is
// recycled instead of becoming garbage.
func (p *Pool[T]) GrowInsert(s []T, i int, e T) []T {
	if len(s) < cap(s) {
		s = s[:len(s)+1]
		copy(s[i+1:], s[i:])
		s[i] = e
		return s
	}
	grown := p.Get(len(s) + 1)
	copy(grown, s[:i])
	copy(grown[i+1:], s[i:])
	grown[i] = e
	p.Put(s)
	return grown
}

// CloneTail copies src[from:] into a pooled array (used by splits to
// hand the moved half its own storage).
func (p *Pool[T]) CloneTail(src []T, from int) []T {
	out := p.Get(len(src) - from)
	copy(out, src[from:])
	return out
}

// Fit returns s in an array of the capacity class its length calls for:
// s itself when its array is already of that class, otherwise a pooled
// copy, with the larger array retired (an empty s retires its array and
// yields nil). Splits use it on the half that stays behind, which would
// otherwise keep the whole array it was cut from.
func (p *Pool[T]) Fit(s []T) []T {
	if len(s) == 0 || cap(s) >= 2<<bits.Len(uint(len(s)-1)) {
		out := p.CloneTail(s, 0)
		p.Put(s)
		return out
	}
	return s
}

// Slab is a chunked struct allocator: Get hands out pointers into
// block-allocated backing arrays, turning one heap object per node into
// one per slabBlock nodes. Engines use it for their page/node structs,
// which are immortal (ids are never reused, and evicting a leaf only
// drops its residency flag).
type Slab[T any] struct {
	block []T
}

// slabBlock is the number of structs per backing array.
const slabBlock = 256

// Get returns a pointer to a zeroed T.
func (s *Slab[T]) Get() *T {
	if len(s.block) == 0 {
		s.block = make([]T, slabBlock)
	}
	out := &s.block[0]
	s.block = s.block[1:]
	return out
}

// zeroPad backs AppendZeros.
var zeroPad [4096]byte

// AppendZeros appends n zero bytes to out — the engines' codecs use it
// to zero-fill accounting-mode values without allocating per entry.
func AppendZeros(out []byte, n int) []byte {
	for n > len(zeroPad) {
		out = append(out, zeroPad[:]...)
		n -= len(zeroPad)
	}
	return append(out, zeroPad[:n]...)
}
