package extalloc

import (
	"sort"
	"testing"

	"ptsbench/internal/sim"
)

// refAlloc is the previous sorted-slice implementation of the free set,
// kept as the behavioural reference: lowest-offset first fit, neighbour
// merge on release. The treap must produce exactly the same extents.
type refAlloc struct {
	free []Extent
}

func (r *refAlloc) alloc(n int64) (Extent, bool) {
	for i := range r.free {
		e := r.free[i]
		if e.Pages >= n {
			out := Extent{Start: e.Start, Pages: n}
			if e.Pages == n {
				r.free = append(r.free[:i], r.free[i+1:]...)
			} else {
				r.free[i] = Extent{Start: e.Start + n, Pages: e.Pages - n}
			}
			return out, true
		}
	}
	return Extent{}, false
}

func (r *refAlloc) release(e Extent) {
	i := sort.Search(len(r.free), func(i int) bool {
		return r.free[i].Start >= e.Start
	})
	r.free = append(r.free, Extent{})
	copy(r.free[i+1:], r.free[i:])
	r.free[i] = e
	if i+1 < len(r.free) && r.free[i].Start+r.free[i].Pages == r.free[i+1].Start {
		r.free[i].Pages += r.free[i+1].Pages
		r.free = append(r.free[:i+1], r.free[i+2:]...)
	}
	if i > 0 && r.free[i-1].Start+r.free[i-1].Pages == r.free[i].Start {
		r.free[i-1].Pages += r.free[i].Pages
		r.free = append(r.free[:i], r.free[i+1:]...)
	}
}

func (r *refAlloc) total() int64 {
	var n int64
	for _, e := range r.free {
		n += e.Pages
	}
	return n
}

// TestTreapMatchesReference drives the treap-backed manager and the old
// sorted-slice implementation through a long random alloc/release
// workload and demands identical extents, identical free sets and
// intact treap invariants at every step.
func TestTreapMatchesReference(t *testing.T) {
	m := New(testFile(t), 64)
	// Seed both with one big region so the manager never grows the file
	// (growth paths differ only in where fresh pages come from).
	const region = 3000
	m.Release(Extent{Start: 0, Pages: region})
	ref := &refAlloc{}
	ref.release(Extent{Start: 0, Pages: region})

	var held []Extent
	rng := sim.NewRNG(42)
	for step := 0; step < 5000; step++ {
		if rng.Uint64n(100) < 55 || len(held) == 0 {
			n := int64(rng.Uint64n(40) + 1)
			want, ok := ref.alloc(n)
			if !ok {
				continue // reference full; keep the managers in lockstep
			}
			got, err := m.Alloc(n)
			if err != nil {
				t.Fatalf("step %d: treap alloc failed where reference succeeded: %v", step, err)
			}
			if got != want {
				t.Fatalf("step %d: alloc(%d) = %+v, reference %+v", step, n, got, want)
			}
			held = append(held, got)
		} else {
			i := int(rng.Uint64n(uint64(len(held))))
			e := held[i]
			held = append(held[:i], held[i+1:]...)
			// Split some releases in two to exercise partial merges.
			if e.Pages > 2 && rng.Uint64n(2) == 0 {
				cut := int64(rng.Uint64n(uint64(e.Pages-1)) + 1)
				m.Release(Extent{Start: e.Start + cut, Pages: e.Pages - cut})
				ref.release(Extent{Start: e.Start + cut, Pages: e.Pages - cut})
				e.Pages = cut
			}
			m.Release(e)
			ref.release(e)
		}
		var got []Extent
		if err := m.free.Check(func(e Extent) { got = append(got, e) }); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(got) != len(ref.free) {
			t.Fatalf("step %d: free set sizes differ: %d vs %d", step, len(got), len(ref.free))
		}
		for i := range got {
			if got[i] != ref.free[i] {
				t.Fatalf("step %d: free[%d] = %+v, reference %+v", step, i, got[i], ref.free[i])
			}
		}
		if m.FreePages() != ref.total() {
			t.Fatalf("step %d: FreePages %d, reference %d", step, m.FreePages(), ref.total())
		}
	}
}
