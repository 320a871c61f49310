package flash

import (
	"testing"

	"ptsbench/internal/sim"
)

// referenceGC is greedy garbage collection as it was first written: the
// same trigger, victims and stopping rules as maybeGC, but each valid
// page of a victim is moved by its own program call on the GC frontier,
// with every counter bumped page by page. writePage collects through it,
// so every twin test holds maybeGC's relocation to this definition.
func referenceGC(f *ftl) gcWork {
	var work gcWork
	if len(f.freeBlocks) >= gcLowWater {
		return work
	}
	for len(f.freeBlocks) < gcHighWater {
		v := f.pickVictim()
		if v < 0 {
			// No closed block to collect: force-close a host frontier
			// so its invalidated pages become reclaimable. If even that
			// is impossible the device is genuinely wedged, which the
			// capacity validation is supposed to prevent.
			closed := false
			for i, b := range f.hostOpen {
				if b >= 0 && f.writePtr[b] > 0 {
					f.closeBlock(b)
					f.hostOpen[i] = -1
					closed = true
					break
				}
			}
			if closed {
				continue
			}
			break
		}
		if f.validCount[v] >= int32(f.pagesPerBlock) && len(f.freeBlocks) > 0 {
			// Collecting a fully valid block makes no net progress;
			// stop rather than churn (utilization is at the physical
			// limit).
			break
		}
		f.bucketRemove(v)
		f.state[v] = blockOpen // transitional: not a candidate while moving
		base := v * int32(f.pagesPerBlock)
		for i := int32(0); i < int32(f.pagesPerBlock); i++ {
			ppn := base + i
			lpn := f.p2l[ppn]
			if lpn == unmapped {
				continue
			}
			// Relocate: invalidate in place, re-program at GC frontier.
			f.p2l[ppn] = unmapped
			f.validCount[v]--
			f.program(&f.gcOpen, int64(lpn))
			f.stats.FlashPagesWritten++
			f.stats.Relocations++
			work.relocated++
		}
		f.eraseBlock(v)
		work.erases++
	}
	return work
}

// TestRelocateMatchesReference runs twin FTLs through the same writes
// and trims, collecting one with maybeGC and the other with referenceGC,
// and requires the same GC work and the same state after every
// collection. The run must include the first collection (no GC frontier
// open yet), a victim with no valid pages, and a victim whose valid
// pages overflow the frontier, so that it is closed and a new one opened
// in the middle of the victim.
func TestRelocateMatchesReference(t *testing.T) {
	fast, ref := twinFTLs(t)
	rng := sim.NewRNG(11)
	pages := fast.logicalPages
	ppb := int32(fast.pagesPerBlock)
	var first, empty, overflow int
	collect := func() {
		if len(ref.freeBlocks) >= gcLowWater {
			return
		}
		// pickVictim only advances the lazy minBucket bound, as the
		// collection's own first pick would, so peeking keeps the twins
		// in step.
		fast.pickVictim()
		v := ref.pickVictim()
		switch {
		case ref.gcOpen < 0:
			first++
		case v >= 0 && ref.validCount[v] == 0:
			empty++
		case v >= 0:
			if room := ppb - ref.writePtr[ref.gcOpen]; room > 0 && room < ref.validCount[v] {
				overflow++
			}
		}
		got, want := fast.maybeGC(), referenceGC(ref)
		if got != want {
			t.Fatalf("gc work %+v, reference %+v", got, want)
		}
		sameFTLState(t, fast, ref)
	}
	write := func(n int64) {
		for i := int64(0); i < n; i++ {
			lpn := int64(rng.Uint64n(uint64(pages)))
			fast.writeOne(lpn)
			ref.writeOne(lpn)
			collect()
		}
	}
	// Random writes over an empty drive until the first collection, and
	// on to steady state.
	write(3 * pages)
	// Trimming everything leaves every closed block without a valid
	// page: the next collections take empty victims.
	for lpn := int64(0); lpn < pages; lpn++ {
		fast.trim(lpn)
		ref.trim(lpn)
	}
	write(3 * pages)
	if first != 1 || empty == 0 || overflow == 0 {
		t.Fatalf("collections: %d first, %d with an empty victim, %d overflowing the frontier mid-victim",
			first, empty, overflow)
	}
}

// TestGreedyGCVictimAndWatermarks holds maybeGC to its policy under
// random overwrites: it does no work while gcLowWater or more blocks are
// free, each collection's first victim is a closed block with the fewest
// valid pages, and a collection refills the free pool to gcHighWater.
func TestGreedyGCVictimAndWatermarks(t *testing.T) {
	f, _ := twinFTLs(t)
	rng := sim.NewRNG(5)
	pages := f.logicalPages
	collections := 0
	for i := int64(0); i < 3*pages; i++ {
		f.writeOne(int64(rng.Uint64n(uint64(pages))))
		if len(f.freeBlocks) >= gcLowWater {
			if w := f.maybeGC(); w != (gcWork{}) {
				t.Fatalf("%d free blocks (low water %d): gc did %+v", len(f.freeBlocks), gcLowWater, w)
			}
			continue
		}
		fewest := int32(f.pagesPerBlock) + 1
		for b, s := range f.state {
			if s == blockClosed && f.validCount[b] < fewest {
				fewest = f.validCount[b]
			}
		}
		if v := f.pickVictim(); v < 0 || f.state[v] != blockClosed || f.validCount[v] != fewest {
			t.Fatalf("victim %d, want a closed block with %d valid pages", v, fewest)
		}
		if w := f.maybeGC(); w.erases == 0 {
			t.Fatalf("%d free blocks: gc erased nothing", len(f.freeBlocks))
		}
		if len(f.freeBlocks) < gcHighWater {
			t.Fatalf("gc left %d free blocks, want %d", len(f.freeBlocks), gcHighWater)
		}
		if err := f.checkInvariants(); err != nil {
			t.Fatal(err)
		}
		collections++
	}
	if collections == 0 {
		t.Fatal("no collection ran")
	}
	t.Logf("%d collections", collections)
}
