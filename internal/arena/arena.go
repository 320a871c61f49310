// Package arena is the one recycler both engine families allocate
// through. Arena carves slices and single values out of fixed-size
// chunks: structures made of many small pieces that live as long as
// their owner — tree nodes and their buffers, retained keys and values,
// skiplist nodes and towers, free-extent nodes — cost one heap object
// per chunk instead of one per piece, and an arena that opts in to a
// Chunks free list hands its chunks to the next arena when its owner
// goes (a flushed memtable's to the next memtable). Pool recycles whole
// arrays by power-of-two capacity class: the trees' leaf-entry and
// message arrays, and the LSM's side-index columns.
package arena

import "math/bits"

const (
	// defaultChunk is the chunk length, in elements, of an Arena whose
	// Chunk is zero.
	defaultChunk = 256
	// maxFree bounds a Chunks free list. A larger owner recycles this
	// many chunks and leaves the rest to the garbage collector.
	maxFree = 256
)

// Chunks is a free list of chunks, holding at most 256: arenas whose
// Free points at it take chunks from it before making fresh ones, and
// Release puts them back. It is not safe for concurrent use.
type Chunks[T any] [][]T

// Arena carves capacity-limited slices and single values of T out of
// fixed-size chunks. Chunks are never reallocated, so what is carved
// stays valid for the arena's lifetime; a request larger than a chunk
// gets its own allocation and leaves the current chunk intact. A
// request that does not fit the rest of the current chunk starts a new
// one. The zero value carves chunks of 256 elements and recycles none.
type Arena[T any] struct {
	// Chunk is the number of elements per chunk (0 means 256). Set it
	// before the first carve.
	Chunk int
	// Free opts the arena in to chunk recycling: chunks come from it,
	// cleared so no stale pointer survives, and Release returns every
	// chunk taken to it.
	Free *Chunks[T]

	rest  []T   // uncarved rest of the current chunk
	taken [][]T // the chunks taken, kept only when Free is set
}

// Alloc returns a zeroed slice of n elements whose capacity is n: an
// append past it moves the slice instead of running into the next one.
func (a *Arena[T]) Alloc(n int) []T { return a.alloc(n, a.Chunk) }

// alloc carves n elements from chunks of size elements (0 means
// defaultChunk).
func (a *Arena[T]) alloc(n, size int) []T {
	if size == 0 {
		size = defaultChunk
	}
	if n > size {
		return make([]T, n)
	}
	if len(a.rest) < n {
		a.rest = a.take(size)
	}
	out := a.rest[:n:n]
	a.rest = a.rest[n:]
	return out
}

// take returns a zeroed chunk of size elements: the newest chunk on the
// free list when the arena has one and it is not empty, else a fresh
// one.
func (a *Arena[T]) take(size int) []T {
	if a.Free == nil {
		return make([]T, size)
	}
	var c []T
	if l := *a.Free; len(l) > 0 {
		c = l[len(l)-1]
		l[len(l)-1] = nil
		*a.Free = l[:len(l)-1]
		clear(c)
	} else {
		c = make([]T, size)
	}
	a.taken = append(a.taken, c)
	return c
}

// New returns a pointer to a zeroed T carved from the arena.
func (a *Arena[T]) New() *T { return &a.Alloc(1)[0] }

// Clone copies s into the arena, preserving nil.
func (a *Arena[T]) Clone(s []T) []T {
	if s == nil {
		return nil
	}
	out := a.Alloc(len(s))
	copy(out, s)
	return out
}

// Release returns every chunk the arena took to its free list, up to
// the list's bound, and empties the arena; the list of chunks taken
// keeps its capacity for the arena's next use. Nothing carved from it
// may be used again. An arena without a free list has nothing to
// release.
func (a *Arena[T]) Release() {
	for _, c := range a.taken {
		if len(*a.Free) == maxFree {
			break
		}
		*a.Free = append(*a.Free, c)
	}
	clear(a.taken)
	a.rest, a.taken = nil, a.taken[:0]
}

// Spare is a last-in first-out list of retired values of T, for structs
// an owner makes and drops at a steady rate (the LSM's builders,
// tables, memtables and background jobs): Get takes the newest retired
// value, or a new zeroed one when there is none, and Put retires one.
// The caller resets the fields it reuses. It is not safe for concurrent
// use.
type Spare[T any] []*T

// Get returns the most recently retired value, or a new one.
func (s *Spare[T]) Get() *T {
	n := len(*s)
	if n == 0 {
		return new(T)
	}
	v := (*s)[n-1]
	(*s)[n-1] = nil
	*s = (*s)[:n-1]
	return v
}

// Put retires v for a later Get. The caller must not use v afterwards.
func (s *Spare[T]) Put(v *T) { *s = append(*s, v) }

// Pool recycles slices of T by power-of-two capacity class. The
// engines' leaf-entry and message arrays churn constantly — every
// append past capacity retires one array, every leaf split demands a
// fresh one — and that churn was the dominant byte source feeding the
// GC once per-key allocations moved to an arena; the LSM's side-index
// columns churn with every table a compaction removes. Retired arrays
// keep their contents; Get never clears, so every caller must fully
// overwrite the returned prefix. Arrays of the small classes are carved
// out of shared chunks: a tree that sizes its arrays to what they hold
// (the Bε-tree's per-child buffers) asks for tens of thousands of them,
// and one heap object each would put that count straight into
// allocs/op.
type Pool[T any] struct {
	classes [32][][]T
	carve   Arena[T] // the small arrays' chunks
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
	return p.carve.alloc(size, poolChunkSlots)[:n] // capacity-limited: appends cannot reach the neighbour
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

// Grow returns s with room for n more elements: s itself when it has
// the room, otherwise s's elements in a pooled array of the class
// len(s)+n calls for, with s's array retired.
func (p *Pool[T]) Grow(s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	grown := p.Get(len(s) + n)[:len(s)]
	copy(grown, s)
	p.Put(s)
	return grown
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
