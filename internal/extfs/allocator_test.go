package extfs

import (
	"errors"
	"fmt"
	"sort"
	"testing"

	"ptsbench/internal/freeset"
	"ptsbench/internal/sim"
)

// refAllocator is the previous sorted-slice implementation of the
// rotating first-fit allocator, moved here verbatim as the behavioural
// reference: the freeset-backed allocator must return exactly the same
// extents and leave exactly the same cursor and free set.
type refAllocator struct {
	free      []extent // sorted by start, non-overlapping, non-adjacent
	totalFree int64
	cursor    int64
	base      int64 // first allocatable page
	limit     int64 // one past last allocatable page
	scratch   []extent
}

func newRefAllocator(base, n int64) *refAllocator {
	return &refAllocator{
		free:      []extent{{start: base, n: n}},
		totalFree: n,
		cursor:    base,
		base:      base,
		limit:     base + n,
	}
}

func (a *refAllocator) allocate(n int64) ([]extent, error) {
	if n > a.totalFree {
		return nil, fmt.Errorf("%w (want %d pages, have %d)", ErrNoSpace, n, a.totalFree)
	}
	out := a.scratch[:0]
	defer func() { a.scratch = out }()
	remaining := n
	wrapped := false
	for remaining > 0 {
		i := a.firstFreeAt(a.cursor)
		if i == len(a.free) {
			if wrapped {
				// Should be impossible: totalFree said there was space.
				panic("extfs: allocator inconsistency")
			}
			a.cursor = a.base
			wrapped = true
			continue
		}
		e := &a.free[i]
		start := e.start
		if start < a.cursor {
			start = a.cursor
		}
		avail := e.start + e.n - start
		take := avail
		if take > remaining {
			take = remaining
		}
		out = append(out, extent{start: start, n: take})
		a.carve(i, start, take)
		a.totalFree -= take
		remaining -= take
		a.cursor = start + take
		if a.cursor >= a.limit {
			a.cursor = a.base
			wrapped = true
		}
	}
	return out, nil
}

// firstFreeAt returns the index of the first free extent containing or
// after page p, or len(free).
func (a *refAllocator) firstFreeAt(p int64) int {
	return sort.Search(len(a.free), func(i int) bool {
		return a.free[i].start+a.free[i].n > p
	})
}

// carve removes [start, start+take) from free extent i, splitting as
// needed.
func (a *refAllocator) carve(i int, start, take int64) {
	e := a.free[i]
	leftN := start - e.start
	rightN := (e.start + e.n) - (start + take)
	switch {
	case leftN == 0 && rightN == 0:
		a.free = append(a.free[:i], a.free[i+1:]...)
	case leftN == 0:
		a.free[i] = extent{start: start + take, n: rightN}
	case rightN == 0:
		a.free[i] = extent{start: e.start, n: leftN}
	default:
		a.free[i] = extent{start: e.start, n: leftN}
		rest := extent{start: start + take, n: rightN}
		a.free = append(a.free, extent{})
		copy(a.free[i+2:], a.free[i+1:])
		a.free[i+1] = rest
	}
}

// release returns an extent to the free pool, merging neighbours.
func (a *refAllocator) release(e extent) {
	i := sort.Search(len(a.free), func(i int) bool {
		return a.free[i].start >= e.start
	})
	a.free = append(a.free, extent{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = e
	a.totalFree += e.n
	// Merge with successor.
	if i+1 < len(a.free) && a.free[i].start+a.free[i].n == a.free[i+1].start {
		a.free[i].n += a.free[i+1].n
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	// Merge with predecessor.
	if i > 0 && a.free[i-1].start+a.free[i-1].n == a.free[i].start {
		a.free[i-1].n += a.free[i].n
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
}

// pageAllocator is what the differential test, the allocation gate and
// the benchmark drive: the allocator and its reference.
type pageAllocator interface {
	allocate(n int64) ([]extent, error)
	release(e extent)
}

// fragment fills a fresh allocator over 4*k pages with 2-page extents
// and releases every other one, lowest first (an append for the sorted
// slice, so the reference fragments in linear time too): k free extents
// between k held ones, which it returns oldest (lowest) first.
func fragment(tb testing.TB, a pageAllocator, k int) []extent {
	tb.Helper()
	held := make([]extent, 0, k)
	var holes []extent
	for i := 0; i < 2*k; i++ {
		got, err := a.allocate(2)
		if err != nil || len(got) != 1 {
			tb.Fatalf("fragment: allocate #%d = %v, %v", i, got, err)
		}
		if i%2 == 0 {
			holes = append(holes, got[0])
		} else {
			held = append(held, got[0])
		}
	}
	for _, e := range holes {
		a.release(e)
	}
	return held
}

// checkAllocator verifies the free set's own invariants plus the one
// allocate's panic rests on — totalFree equals the pages the set holds —
// passing each free extent, in order, to visit (if non-nil). It returns
// the number of free extents.
func checkAllocator(tb testing.TB, a *allocator, visit func(extent)) int {
	tb.Helper()
	var extents int
	var pages int64
	err := a.free.Check(func(e freeset.Extent) {
		extents++
		pages += e.Pages
		if e.Start < a.base || e.Start+e.Pages > a.limit {
			tb.Fatalf("free extent %+v outside [%d,%d)", e, a.base, a.limit)
		}
		if visit != nil {
			visit(extent{start: e.Start, n: e.Pages})
		}
	})
	if err != nil {
		tb.Fatal(err)
	}
	if pages != a.totalFree {
		tb.Fatalf("free set holds %d pages, totalFree says %d", pages, a.totalFree)
	}
	return extents
}

// lockstep drives the freeset-backed allocator and the sorted-slice
// reference together. After every call it demands identical returned
// extents, cursor, totalFree and free set, and intact set invariants;
// the reached counters record which carve shapes and policy branches
// the calls exercised.
type lockstep struct {
	t   *testing.T
	a   *allocator
	ref *refAllocator
	pre []extent // the reference's free list before the call

	reached struct {
		exact, prefix, suffix, middle    int // shape of each carve
		spanning, wrapped, wrappedInside int // policy branches of allocate
		noSpace, merged                  int
		maxExtents                       int
	}
}

func (l *lockstep) allocate(n int64) ([]extent, error) {
	l.t.Helper()
	l.pre = append(l.pre[:0], l.ref.free...)
	cursor, total := l.a.cursor, l.a.totalFree
	got, err := l.a.allocate(n)
	want, refErr := l.ref.allocate(n)
	if (err == nil) != (refErr == nil) || len(got) != len(want) {
		l.t.Fatalf("allocate(%d) = %v, %v; reference %v, %v", n, got, err, want, refErr)
	}
	if err != nil {
		// Out of space: nothing may move.
		if !errors.Is(err, ErrNoSpace) || l.a.cursor != cursor || l.a.totalFree != total {
			l.t.Fatalf("allocate(%d) with %d free: %v, cursor %d -> %d", n, total, err, cursor, l.a.cursor)
		}
		l.reached.noSpace++
	}
	for i, e := range got {
		if e != want[i] {
			l.t.Fatalf("allocate(%d) = %v, reference %v", n, got, want)
		}
		// Classify the carve against the free extent it came out of.
		j := sort.Search(len(l.pre), func(j int) bool { return l.pre[j].start+l.pre[j].n > e.start })
		from := l.pre[j]
		switch atStart, atEnd := e.start == from.start, e.start+e.n == from.start+from.n; {
		case atStart && atEnd:
			l.reached.exact++
		case atStart:
			l.reached.prefix++
		case atEnd:
			l.reached.suffix++
		default:
			l.reached.middle++
		}
		if i > 0 && e.start < got[i-1].start {
			l.reached.wrappedInside++
		}
	}
	if len(got) > 1 {
		l.reached.spanning++
	}
	if l.a.cursor < cursor {
		l.reached.wrapped++
	}
	l.compare()
	return got, err
}

func (l *lockstep) release(e extent) {
	l.t.Helper()
	before := len(l.ref.free)
	l.a.release(e)
	l.ref.release(e)
	if len(l.ref.free) <= before {
		l.reached.merged++
	}
	l.compare()
}

func (l *lockstep) compare() {
	l.t.Helper()
	a, ref := l.a, l.ref
	if a.cursor != ref.cursor || a.totalFree != ref.totalFree {
		l.t.Fatalf("cursor %d totalFree %d, reference %d %d", a.cursor, a.totalFree, ref.cursor, ref.totalFree)
	}
	i := 0
	n := checkAllocator(l.t, a, func(e extent) {
		if i >= len(ref.free) || e != ref.free[i] {
			l.t.Fatalf("free[%d] = %+v, reference (%d extents) differs", i, e, len(ref.free))
		}
		i++
	})
	if n != len(ref.free) {
		l.t.Fatalf("%d free extents, reference %d", n, len(ref.free))
	}
	l.reached.maxExtents = max(l.reached.maxExtents, n)
}

// TestAllocatorMatchesReference fragments a partition into 1 536 free
// extents and then runs 20 000 seeded random allocate/release steps over
// it, every call in lockstep with the reference, and finally proves
// from the reached counters that the workload visited every shape of
// carve and every branch of the policy.
func TestAllocatorMatchesReference(t *testing.T) {
	const (
		k     = 1536
		steps = 20000
	)
	l := &lockstep{t: t, a: newAllocator(metaPages, 4*k), ref: newRefAllocator(metaPages, 4*k)}
	// held lists the live allocations, each with all its extents, so a
	// release step frees as many pages as an allocate step takes.
	var held [][]extent
	for _, e := range fragment(t, l, k) {
		held = append(held, []extent{e})
	}

	rng := sim.NewRNG(17)
	filling := false
	for step := 0; step < steps; step++ {
		// Hysteresis between 35 % and 90 % full keeps the partition
		// fragmented instead of drifting empty or full.
		switch used := 4*k - l.a.totalFree; {
		case used < 4*k*35/100:
			filling = true
		case used > 4*k*90/100:
			filling = false
		}
		allocProb := uint64(35)
		if filling {
			allocProb = 65
		}
		switch r := rng.Uint64n(100); {
		case r == 99:
			if _, err := l.allocate(l.a.totalFree + 1 + int64(rng.Uint64n(8))); err == nil {
				t.Fatalf("step %d: allocation beyond the free total succeeded", step)
			}
		case r < allocProb || len(held) == 0:
			var n int64
			switch s := rng.Uint64n(100); {
			case s < 90:
				n = int64(rng.Uint64n(4) + 1)
			case s < 99:
				n = int64(rng.Uint64n(40) + 5)
			default:
				n = int64(rng.Uint64n(400) + 45)
			}
			if n = min(n, l.a.totalFree); n == 0 {
				continue
			}
			got, err := l.allocate(n)
			if err != nil {
				t.Fatalf("step %d: allocate(%d): %v", step, n, err)
			}
			held = append(held, append([]extent(nil), got...))
		default:
			// Release a random allocation — or, one time in five, the
			// newest, which sits right behind the cursor: merging it
			// with the free extent the cursor points at leaves the
			// cursor inside an extent (the suffix and middle carves).
			i := len(held) - 1
			if rng.Uint64n(5) != 0 {
				i = int(rng.Uint64n(uint64(len(held))))
			}
			group := held[i]
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
			for _, e := range group {
				// Release some extents in two parts to exercise partial merges.
				if e.n > 1 && rng.Uint64n(3) == 0 {
					cut := int64(rng.Uint64n(uint64(e.n-1)) + 1)
					l.release(extent{start: e.start + cut, n: e.n - cut})
					e.n = cut
				}
				l.release(e)
			}
		}
	}
	t.Logf("reached %+v", l.reached)
	r := l.reached
	for name, n := range map[string]int{
		"exact fit": r.exact, "prefix take": r.prefix, "suffix cut": r.suffix, "middle cut": r.middle,
		"allocation spanning extents": r.spanning, "wrap-around": r.wrapped,
		"wrap-around inside one allocation": r.wrappedInside,
		"ErrNoSpace":                        r.noSpace, "merging release": r.merged,
	} {
		if n == 0 {
			t.Errorf("workload never reached: %s", name)
		}
	}
	if r.maxExtents <= 1000 {
		t.Errorf("free set peaked at %d extents, want > 1000", r.maxExtents)
	}
}

// churner keeps a fragmented allocator in the steady state of file
// churn: step allocates the 2-page hole at the cursor (an exact fit: the
// extent leaves the set) and releases the oldest held extent (a new
// extent enters it). held runs one allocation ahead of what fragment
// left, so the extent released always lies between two allocated ones:
// it merges with nothing and the set stays at k-1 extents sweep after
// sweep — released any earlier it would merge with the next hole and the
// set would collapse to a single extent.
type churner struct {
	a      pageAllocator
	held   []extent // a ring, oldest at [oldest]
	oldest int
}

func newChurner(tb testing.TB, a pageAllocator, k int) *churner {
	c := &churner{a: a, held: fragment(tb, a, k)}
	c.held = append(c.held, c.allocate(tb))
	return c
}

func (c *churner) allocate(tb testing.TB) extent {
	got, err := c.a.allocate(2)
	if err != nil || len(got) != 1 {
		tb.Fatalf("churn: allocate(2) = %v, %v", got, err)
	}
	return got[0]
}

func (c *churner) step(tb testing.TB) {
	e := c.allocate(tb)
	e, c.held[c.oldest] = c.held[c.oldest], e
	c.oldest = (c.oldest + 1) % len(c.held)
	c.a.release(e)
}

// TestAllocatorSteadyStateAllocs is the allocation gate: once the node
// pool, the scratch result and the spare chain are warm, an
// allocate/release pair allocates nothing.
func TestAllocatorSteadyStateAllocs(t *testing.T) {
	const k = 2048
	a := newAllocator(metaPages, 4*k)
	c := newChurner(t, a, k)
	for i := 0; i < 4*k; i++ { // several sweeps of the partition
		c.step(t)
	}
	if avg := testing.AllocsPerRun(2000, func() { c.step(t) }); avg != 0 {
		t.Fatalf("steady-state allocate/release = %v allocs, want 0", avg)
	}
	if n := checkAllocator(t, a, nil); n != k-1 {
		t.Fatalf("churn left %d free extents, want %d", n, k-1)
	}
}

// BenchmarkAllocatorChurn is the layer-level number behind the shared
// free-extent set: one allocate + release per iteration on an allocator
// pre-fragmented to ~1 K / 16 K / 256 K free extents, over the
// freeset-backed allocator and over the sorted-slice reference. The
// reference's ns/op grows with the list (it memmoves it); the set's
// grows with its logarithm.
func BenchmarkAllocatorChurn(b *testing.B) {
	for _, k := range []int{1 << 10, 1 << 14, 1 << 18} {
		impls := []struct {
			name string
			new  func() pageAllocator
		}{
			{"set", func() pageAllocator { return newAllocator(metaPages, int64(4*k)) }},
			{"ref", func() pageAllocator { return newRefAllocator(metaPages, int64(4*k)) }},
		}
		for _, impl := range impls {
			b.Run(fmt.Sprintf("%s/extents=%dK", impl.name, k>>10), func(b *testing.B) {
				a := impl.new()
				c := newChurner(b, a, k)
				for i := 0; i < 64; i++ {
					c.step(b)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.step(b)
				}
				b.StopTimer()
				switch a := a.(type) {
				case *allocator:
					b.ReportMetric(float64(checkAllocator(b, a, nil)), "free_extents")
				case *refAllocator:
					b.ReportMetric(float64(len(a.free)), "free_extents")
				}
			})
		}
	}
}

// BenchmarkFileChurn is the filesystem-level number beside it: one file
// created, appended to in 8-page chunks over 2-page holes until it
// spans 256 extents, and removed per iteration (see churnFS). Its
// allocs/op is the File struct alone once the extent lists recycle.
func BenchmarkFileChurn(b *testing.B) {
	cycle := churnFS(b)
	for i := 0; i < 8; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
