package freeset

import (
	"sort"
	"strings"
	"testing"

	"ptsbench/internal/sim"
)

// model is the set as a sorted slice of disjoint, non-adjacent extents,
// with every operation written the obvious linear way.
type model []Extent

func (m model) firstFit(n int64) (Extent, bool) {
	for _, e := range m {
		if e.Pages >= n {
			return e, true
		}
	}
	return Extent{}, false
}

func (m model) after(p int64) (Extent, bool) {
	for _, e := range m {
		if e.Start+e.Pages > p {
			return e, true
		}
	}
	return Extent{}, false
}

// carve rebuilds the slice without [start, start+n).
func (m model) carve(start, n int64) model {
	var out model
	for _, e := range m {
		if start < e.Start || start >= e.Start+e.Pages {
			out = append(out, e)
			continue
		}
		if start > e.Start {
			out = append(out, Extent{Start: e.Start, Pages: start - e.Start})
		}
		if end := e.Start + e.Pages; start+n < end {
			out = append(out, Extent{Start: start + n, Pages: end - (start + n)})
		}
	}
	return out
}

// release adds e and re-merges whatever now touches.
func (m model) release(e Extent) model {
	m = append(m, e)
	sort.Slice(m, func(i, j int) bool { return m[i].Start < m[j].Start })
	out := m[:1]
	for _, e := range m[1:] {
		if last := &out[len(out)-1]; last.Start+last.Pages == e.Start {
			last.Pages += e.Pages
		} else {
			out = append(out, e)
		}
	}
	return out
}

func mustMatch(t *testing.T, step int, s *Set, m model) {
	t.Helper()
	i := 0
	err := s.Check(func(e Extent) {
		if i >= len(m) || e != m[i] {
			t.Fatalf("step %d: extent %d = %+v, model %+v", step, i, e, m)
		}
		i++
	})
	if err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if i != len(m) {
		t.Fatalf("step %d: %d extents, model has %d", step, i, len(m))
	}
}

// TestSetMatchesModel drives the four operations directly — the
// allocators' differential tests reach them only through their policies
// — against the linear model: random carves of any sub-range of any
// extent, releases of what was carved, and queries at every boundary.
func TestSetMatchesModel(t *testing.T) {
	const pages = 4096
	var s Set
	var m model
	s.Release(Extent{Start: 0, Pages: pages})
	m = m.release(Extent{Start: 0, Pages: pages})
	var held []Extent
	rng := sim.NewRNG(7)
	for step := 0; step < 6000; step++ {
		if len(m) > 0 && (rng.Uint64n(100) < 52 || len(held) == 0) {
			from := m[rng.Uint64n(uint64(len(m)))]
			off := int64(rng.Uint64n(uint64(from.Pages)))
			if rng.Uint64n(2) == 0 {
				off = 0 // prefixes and exact fits as often as suffixes and middles
			}
			n := min(int64(rng.Uint64n(12)+1), from.Pages-off)
			if rng.Uint64n(4) == 0 {
				n = from.Pages - off
			}
			s.Carve(from.Start+off, n)
			m = m.carve(from.Start+off, n)
			held = append(held, Extent{Start: from.Start + off, Pages: n})
		} else {
			i := rng.Uint64n(uint64(len(held)))
			s.Release(held[i])
			m = m.release(held[i])
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
		}
		mustMatch(t, step, &s, m)
		n := int64(rng.Uint64n(40) + 1)
		got, ok := s.FirstFit(n)
		if want, wantOK := m.firstFit(n); got != want || ok != wantOK {
			t.Fatalf("step %d: FirstFit(%d) = %+v, %v; model %+v, %v", step, n, got, ok, want, wantOK)
		}
		p := int64(rng.Uint64n(pages+2)) - 1
		got, ok = s.After(p)
		if want, wantOK := m.after(p); got != want || ok != wantOK {
			t.Fatalf("step %d: After(%d) = %+v, %v; model %+v, %v", step, p, got, ok, want, wantOK)
		}
	}
}

func TestEmptySet(t *testing.T) {
	var s Set
	if e, ok := s.FirstFit(1); ok {
		t.Fatalf("FirstFit on an empty set = %+v", e)
	}
	if e, ok := s.After(0); ok {
		t.Fatalf("After on an empty set = %+v", e)
	}
	if err := s.Check(func(Extent) { t.Fatal("visited an extent of an empty set") }); err != nil {
		t.Fatal(err)
	}
}

// TestCheckCatchesCorruption breaks each invariant by hand: Check is
// what the differential tests lean on, so it must not pass vacuously.
func TestCheckCatchesCorruption(t *testing.T) {
	build := func() *Set {
		s := &Set{}
		for i := int64(0); i < 32; i++ {
			s.Release(Extent{Start: 10 * i, Pages: 1 + i%5})
		}
		return s
	}
	if err := build().Check(func(Extent) {}); err != nil {
		t.Fatalf("intact set: %v", err)
	}
	for _, tc := range []struct {
		name, want string
		corrupt    func(root *node)
	}{
		{"stale max", "stale max", func(root *node) { root.max++ }},
		{"heap order", "heap order", func(root *node) { root.prio = 0 }},
		{"adjacent extents", "touches its predecessor", func(root *node) {
			pred := root.left
			for pred.right != nil {
				pred = pred.right
			}
			root.ext.Start = pred.ext.Start + pred.ext.Pages
		}},
		{"empty extent", "is empty", func(root *node) { root.ext.Pages = 0 }},
	} {
		s := build()
		tc.corrupt(s.root)
		if err := s.Check(func(Extent) {}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Check = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestNodePool pins the allocation behaviour both allocators rely on:
// recycled nodes make carve/release churn allocation-free, and slabs
// make growing to n extents cost n/slabNodes allocations, not n.
func TestNodePool(t *testing.T) {
	var s Set
	s.Release(Extent{Start: 0, Pages: 1 << 20})
	churn := func() {
		for i := int64(0); i < 32; i++ {
			s.Carve(100*i+10, 5) // middle cut: a new node each
		}
		for i := int64(0); i < 32; i++ {
			s.Release(Extent{Start: 100*i + 10, Pages: 5})
		}
	}
	churn()
	if avg := testing.AllocsPerRun(100, churn); avg != 0 {
		t.Fatalf("warm carve/release churn = %v allocs, want 0", avg)
	}
	grow := func() {
		var s Set
		for i := int64(0); i < 20000; i++ {
			s.Release(Extent{Start: 2 * i, Pages: 1})
		}
	}
	if avg, want := testing.AllocsPerRun(1, grow), 20000.0/slabNodes+1; avg > want {
		t.Fatalf("growing to 20000 extents = %v allocs, want <= %v slabs", avg, want)
	}
}
