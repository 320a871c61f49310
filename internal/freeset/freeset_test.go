package freeset

import (
	"runtime"
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

// shape classifies the release of e into the set: bit 0 set when e
// touches its predecessor, bit 1 when it touches its successor.
func (m model) shape(e Extent) int {
	k := 0
	for _, f := range m {
		if f.Start+f.Pages == e.Start {
			k |= 1
		}
		if f.Start == e.Start+e.Pages {
			k |= 2
		}
	}
	return k
}

// TestSetMatchesModel drives the operations directly — the allocators'
// differential tests reach them only through their policies — against
// the linear model: random carves of any sub-range of any extent, takes
// of random sizes (the model's first fit plus a prefix carve), releases
// of what was carved or taken, one at a time or as a ReleaseAll batch,
// and queries at every boundary, with Check after every step. Each of
// Release's four shapes — touching the predecessor, the successor, both
// or neither — must come up often, and so must both of ReleaseAll's
// paths: a batch large against the set, which rebuilds it, and a small
// one, released extent by extent.
func TestSetMatchesModel(t *testing.T) {
	const pages = 1 << 14
	var s Set
	var m model
	s.Release(Extent{Start: 0, Pages: pages})
	m = m.release(Extent{Start: 0, Pages: pages})
	var held []Extent
	var shapes [4]int
	batches := map[bool]int{} // ReleaseAll calls by path: rebuilt or not
	rng := sim.NewRNG(7)
	for step := 0; step < 8000; step++ {
		// Phases that fragment the set, with small batches, alternate
		// with phases that heal it, with batches of half of what is held.
		carveP, takeP, batchP := uint64(30), uint64(40), uint64(48)
		fragment := step/1000%2 == 0
		if fragment {
			carveP, takeP, batchP = 55, 65, 77
		}
		switch r := rng.Uint64n(100); {
		case len(m) > 0 && (r < carveP || len(held) == 0):
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
		case r < takeP:
			n := int64(rng.Uint64n(40) + 1)
			got, ok := s.Take(n)
			want, wantOK := m.firstFit(n)
			if wantOK {
				want.Pages = n
				m = m.carve(want.Start, n)
			}
			if got != want || ok != wantOK {
				t.Fatalf("step %d: Take(%d) = %+v, %v; model %+v, %v", step, n, got, ok, want, wantOK)
			}
			if ok {
				held = append(held, got)
			}
		case r < batchP && len(held) > 1:
			k := 1 + int(rng.Uint64n(2))
			if !fragment {
				k = len(held)/2 + 1
			}
			var batch []Extent
			for ; k > 0 && len(held) > 0; k-- {
				i := rng.Uint64n(uint64(len(held)))
				batch = append(batch, held[i])
				m = m.release(held[i])
				held[i] = held[len(held)-1]
				held = held[:len(held)-1]
			}
			batches[len(batch)*rebuildShare > s.size]++
			s.ReleaseAll(batch)
		default:
			i := rng.Uint64n(uint64(len(held)))
			shapes[m.shape(held[i])]++
			s.Release(held[i])
			m = m.release(held[i])
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
		}
		mustMatch(t, step, &s, m)
		p := int64(rng.Uint64n(pages+2)) - 1
		got, ok := s.After(p)
		if want, wantOK := m.after(p); got != want || ok != wantOK {
			t.Fatalf("step %d: After(%d) = %+v, %v; model %+v, %v", step, p, got, ok, want, wantOK)
		}
	}
	for k, name := range []string{"neither neighbour", "the predecessor", "the successor", "both neighbours"} {
		if shapes[k] < 100 {
			t.Errorf("%d releases touched %s, want at least 100 (shapes %v)", shapes[k], name, shapes)
		}
	}
	if batches[true] < 100 || batches[false] < 100 {
		t.Errorf("ReleaseAll rebuilt the set %d times and released one by one %d times, want at least 100 each", batches[true], batches[false])
	}
}

func TestEmptySet(t *testing.T) {
	var s Set
	if e, ok := s.Take(1); ok {
		t.Fatalf("Take on an empty set = %+v", e)
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
// recycled nodes make carve/release churn allocation-free, one extent at
// a time or as a batch, and slabs make growing to n extents cost
// n/slabNodes allocations, not n. Each measurement starts from a
// collected heap: a collection that begins inside the measured run
// allocates on the runtime's behalf, which is no allocation of the set's.
func TestNodePool(t *testing.T) {
	var s Set
	s.Release(Extent{Start: 0, Pages: 1 << 20})
	batch := make([]Extent, 0, 32)
	churn := func() {
		for round := 0; round < 2; round++ {
			batch = batch[:0]
			for i := int64(0); i < 32; i++ {
				s.Carve(100*i+10, 5) // middle cut: a new node each
				batch = append(batch, Extent{Start: 100*i + 10, Pages: 5})
			}
			if round == 0 {
				for _, e := range batch {
					s.Release(e)
				}
			} else {
				s.ReleaseAll(batch) // 32 extents against 33: the rebuild
			}
		}
	}
	churn()
	runtime.GC()
	if avg := testing.AllocsPerRun(100, churn); avg != 0 {
		t.Fatalf("warm carve/release churn = %v allocs, want 0", avg)
	}
	grow := func() {
		var s Set
		for i := int64(0); i < 20000; i++ {
			s.Release(Extent{Start: 2 * i, Pages: 1})
		}
	}
	runtime.GC()
	if avg, want := testing.AllocsPerRun(1, grow), 20000.0/slabNodes+1; avg > want {
		t.Fatalf("growing to 20000 extents = %v allocs, want <= %v slabs", avg, want)
	}
}

// benchSet is a set holding about 8,000 two-page holes — roughly the
// extent count of cowtree's allocator on the aged B+Tree cell, and half
// of extfs's under the LSM — and above them one free run of span pages.
func benchSet(span int64) *Set {
	s := &Set{}
	const holes = 8000
	for i := int64(0); i < holes; i++ {
		s.Release(Extent{Start: 3 * i, Pages: 2})
	}
	s.Release(Extent{Start: 3 * holes, Pages: span})
	return s
}

func shuffle(rng *sim.RNG, xs []Extent) {
	for i := len(xs) - 1; i > 0; i-- {
		j := rng.Uint64n(uint64(i + 1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// releaseRounds returns a benchmark set and a function that takes back
// span pages from it as pieces of 1–8 pages, back to back, and returns
// them shuffled: releasing a round merges with neither neighbour, either
// one or both, in every mix.
func releaseRounds() (*Set, func() []Extent) {
	const span = 1 << 15
	s := benchSet(span)
	rng := sim.NewRNG(3)
	var pieces []Extent
	return s, func() []Extent {
		pieces = pieces[:0]
		for left := int64(span); left > 0; {
			e, _ := s.Take(min(int64(rng.Uint64n(8)+1), left))
			pieces = append(pieces, e)
			left -= e.Pages
		}
		shuffle(rng, pieces)
		return pieces
	}
}

// BenchmarkRelease measures one Release of a round's pieces. Retaking
// the pieces between rounds is not timed.
func BenchmarkRelease(b *testing.B) {
	s, retake := releaseRounds()
	pieces := retake()
	next := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if next == len(pieces) {
			b.StopTimer()
			pieces = retake()
			next = 0
			b.StartTimer()
		}
		s.Release(pieces[next])
		next++
	}
}

// BenchmarkReleaseAll releases each round as one batch (about 7,300
// pieces against the set's 8,000 extents: the rebuild). Its ns/extent
// compares with BenchmarkRelease's ns/op.
func BenchmarkReleaseAll(b *testing.B) {
	s, retake := releaseRounds()
	extents := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		pieces := retake()
		extents += len(pieces)
		b.StartTimer()
		s.ReleaseAll(pieces)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(extents), "ns/extent")
}

// BenchmarkTake measures one Take of 1–8 pages: the smallest sizes fill
// holes, the larger ones must skip them. Releasing the taken pieces
// between rounds, in a random order, is not timed.
func BenchmarkTake(b *testing.B) {
	const span = 1 << 15
	s := benchSet(span)
	rng := sim.NewRNG(5)
	var taken []Extent
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(taken) == 4096 {
			b.StopTimer()
			shuffle(rng, taken)
			for _, e := range taken {
				s.Release(e)
			}
			taken = taken[:0]
			b.StartTimer()
		}
		e, _ := s.Take(int64(i%8 + 1))
		taken = append(taken, e)
	}
}
