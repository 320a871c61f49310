package flash

import (
	"fmt"
	"testing"

	"ptsbench/internal/sim"
)

// Equivalence tests for the batched hot paths: the range and closed-form
// implementations must reproduce the per-page primitives exactly. These
// complement internal/core's golden fixtures (which pin whole-experiment
// results against the pre-batching implementation).

func twinFTLs(t *testing.T) (*ftl, *ftl) {
	t.Helper()
	cfg := Config{
		LogicalBytes:  32 << 20,
		PageSize:      4096,
		PagesPerBlock: 64,
		Profile:       ProfileSSD1().Scaled(4096),
	}
	cfg, err := cfg.Validate()
	if err != nil {
		t.Fatal(err)
	}
	return newFTL(cfg), newFTL(cfg)
}

// sameFTLState requires a and b to agree on every field that decides
// the FTL's later behaviour: counters, both maps, per-block state, the
// free pool in order, the open frontiers, the greedy buckets in order
// and the stream RNG. Only sink, which nothing reads, may differ.
func sameFTLState(t *testing.T, a, b *ftl) {
	t.Helper()
	if err := a.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := b.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if a.stats != b.stats {
		t.Fatalf("stats diverge: %+v vs %+v", a.stats, b.stats)
	}
	if a.mappedPages != b.mappedPages {
		t.Fatalf("mappedPages %d vs %d", a.mappedPages, b.mappedPages)
	}
	sameInts(t, "l2p", a.l2p, b.l2p)
	sameInts(t, "p2l", a.p2l, b.p2l)
	sameInts(t, "validCount", a.validCount, b.validCount)
	sameInts(t, "writePtr", a.writePtr, b.writePtr)
	sameInts(t, "state", a.state, b.state)
	sameInts(t, "eraseCount", a.eraseCount, b.eraseCount)
	sameInts(t, "freeBlocks", a.freeBlocks, b.freeBlocks)
	sameInts(t, "hostOpen", a.hostOpen, b.hostOpen)
	if a.gcOpen != b.gcOpen {
		t.Fatalf("gcOpen %d vs %d", a.gcOpen, b.gcOpen)
	}
	if a.minBucket != b.minBucket {
		t.Fatalf("minBucket %d vs %d", a.minBucket, b.minBucket)
	}
	if len(a.buckets) != len(b.buckets) {
		t.Fatalf("%d buckets vs %d", len(a.buckets), len(b.buckets))
	}
	for v := range a.buckets {
		sameInts(t, fmt.Sprintf("buckets[%d]", v), a.buckets[v], b.buckets[v])
	}
	sameInts(t, "bucketPos", a.bucketPos, b.bucketPos)
	if *a.rng != *b.rng {
		t.Fatal("stream RNGs diverge")
	}
}

// sameInts requires two slices to be equal in length and element by
// element.
func sameInts[T int32 | blockState](t *testing.T, name string, a, b []T) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s[%d]: %d vs %d", name, i, a[i], b[i])
		}
	}
}

// TestHostWriteRangeEquivalence drives twin FTLs through an identical
// workload — one using ranged writes collecting their GC work in one
// lane, the other the per-page writePage reference — and requires
// identical state and identical aggregated GC work, including phases
// where garbage collection triggers mid-range.
func TestHostWriteRangeEquivalence(t *testing.T) {
	ranged, paged := twinFTLs(t)
	rng := sim.NewRNG(42)
	total := ranged.logicalPages
	// Overwrite pressure: 4x the logical space in ranges of 1..300 pages
	// (many spanning several erase blocks), at random offsets.
	var written int64
	for written < 4*total {
		n := 1 + int64(rng.Uint64n(300))
		lpn := int64(rng.Uint64n(uint64(total - n)))
		wantWork := gcWork{}
		for i := int64(0); i < n; i++ {
			wantWork.add(writePage(paged, lpn+i))
		}
		var got [1]gcWork
		ranged.write(lpn, n, got[:])
		ranged.stats.HostPagesWritten += n
		if gotWork := got[0]; gotWork != wantWork {
			t.Fatalf("range [%d,+%d): gc work %+v, per-page %+v", lpn, n, gotWork, wantWork)
		}
		written += n
	}
	sameFTLState(t, ranged, paged)
}

// TestHostWriteRangeStripedEquivalence checks that a ranged write over
// 16 lanes attributes per-lane GC work exactly as per-page attribution
// would, and mutates the FTL identically.
func TestHostWriteRangeStripedEquivalence(t *testing.T) {
	const lanes = 16
	ranged, paged := twinFTLs(t)
	rng := sim.NewRNG(7)
	total := ranged.logicalPages
	var written int64
	for written < 3*total {
		n := 1 + int64(rng.Uint64n(200))
		lpn := int64(rng.Uint64n(uint64(total - n)))
		var want [lanes]gcWork
		for i := int64(0); i < n; i++ {
			want[(lpn+i)%lanes].add(writePage(paged, lpn+i))
		}
		var got [lanes]gcWork
		ranged.write(lpn, n, got[:])
		ranged.stats.HostPagesWritten += n
		if got != want {
			t.Fatalf("range [%d,+%d): striped gc work %v, per-page %v", lpn, n, got, want)
		}
		written += n
	}
	sameFTLState(t, ranged, paged)
}

// TestHostWriteRangeAllocFree asserts the FTL write path performs no heap
// allocation per range.
func TestHostWriteRangeAllocFree(t *testing.T) {
	f, _ := twinFTLs(t)
	total := f.logicalPages
	f.sequentialFill(0, total)
	rng := sim.NewRNG(3)
	work := make([]gcWork, 16)
	allocs := testing.AllocsPerRun(200, func() {
		lpn := int64(rng.Uint64n(uint64(total - 64)))
		f.write(lpn, 64, work)
	})
	if allocs > 0.02 {
		t.Fatalf("write allocates %.2f objects per call, want 0", allocs)
	}
}

// TestSequentialFillState checks the O(blocks) fill leaves a consistent,
// fully mapped FTL with exact stats.
func TestSequentialFillState(t *testing.T) {
	f, _ := twinFTLs(t)
	f.sequentialFill(0, f.logicalPages)
	if err := f.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if f.mappedPages != f.logicalPages {
		t.Fatalf("mapped %d of %d pages", f.mappedPages, f.logicalPages)
	}
	if f.stats.HostPagesWritten != f.logicalPages || f.stats.FlashPagesWritten != f.logicalPages {
		t.Fatalf("stats %+v, want host=flash=%d", f.stats, f.logicalPages)
	}
	// Overwriting after a fill must behave (GC keeps up, invariants hold).
	rng := sim.NewRNG(5)
	for i := int64(0); i < 2*f.logicalPages; i++ {
		writePage(f, int64(rng.Uint64n(uint64(f.logicalPages))))
	}
	if err := f.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}
