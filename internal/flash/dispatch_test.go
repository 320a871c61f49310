package flash

import (
	"testing"
	"time"

	"ptsbench/internal/sim"
)

// writePage is the per-page reference for a host page write: program the
// page, count it as host traffic, and run garbage collection if the free
// pool is low, relocating page by page through referenceGC. Every
// batched write path must reproduce a sequence of these exactly — state,
// counters and the GC work each page caused.
func writePage(f *ftl, lpn int64) gcWork {
	f.writeOne(lpn)
	f.stats.HostPagesWritten++
	return referenceGC(f)
}

// TestSubmitUniformMatchesPerPageStriping cross-checks request dispatch
// against a brute-force per-page model over many (lpn, n, lanes)
// combinations, for reads and for writes on a full drive. Page lpn+i
// lands on lane (lpn+i) mod lanes and costs perPage there; a write's page
// also charges the GC work it triggered to its own lane; the fixed
// command overhead is charged once, to the lane of the first page. The
// reference drives a twin FTL page by page through writePage, so a write
// path that attributes GC work to the wrong lane, or mutates the FTL
// differently, fails here.
func TestSubmitUniformMatchesPerPageStriping(t *testing.T) {
	for _, lanes := range []int{1, 2, 3, 4, 8, 16} {
		dev, err := NewDevice(Config{
			LogicalBytes:  32 << 20,
			PageSize:      4096,
			PagesPerBlock: 64,
			Profile:       ProfileSSD1().Scaled(4096).WithParallelism(lanes, 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		pages := dev.LogicalPages()
		twin := newFTL(dev.cfg)
		// Fill the drive so garbage collection fires mid-request.
		dev.PreconditionRange(sim.NewRNG(99), 0, pages, 1)
		twin.sequentialFill(0, pages)
		aging := sim.NewRNG(99)
		for i := int64(0); i < pages; i++ {
			writePage(twin, int64(aging.Uint64n(uint64(pages))))
		}
		sameFTLState(t, dev.ftl, twin)
		filled := dev.Stats()

		brute := sim.NewMultiResource(lanes)
		rng := sim.NewRNG(uint64(lanes))
		var now sim.Duration
		for iter := 0; iter < 500; iter++ {
			n := 1 + int(rng.Uint64n(100))
			lpn := int64(rng.Uint64n(uint64(pages - int64(n))))
			write := rng.Uint64n(2) == 0

			var got sim.Duration
			fixed, perPage := dev.cfg.Profile.ReadFixed, dev.laneReadPerPage
			if write {
				got = dev.SubmitWrite(now, lpn, n)
				fixed, perPage = dev.cfg.Profile.WriteFixed, dev.laneWritePerPage
			} else {
				got = dev.SubmitRead(now, lpn, n)
				twin.stats.HostPagesRead += int64(n)
			}

			svc := make([]time.Duration, lanes)
			touched := make([]bool, lanes)
			lead := int(lpn % int64(lanes))
			svc[lead] = fixed
			touched[lead] = true
			for i := 0; i < n; i++ {
				lane := int((lpn + int64(i)) % int64(lanes))
				svc[lane] += perPage
				if write {
					svc[lane] += dev.laneGCTime(writePage(twin, lpn+int64(i)))
				}
				touched[lane] = true
			}
			want := now
			for lane := 0; lane < lanes; lane++ {
				if !touched[lane] {
					continue
				}
				if end := brute.AcquireLane(lane, now, svc[lane]); end > want {
					want = end
				}
			}
			if got != want {
				t.Fatalf("lanes=%d iter=%d write=%v lpn=%d n=%d: got %v want %v",
					lanes, iter, write, lpn, n, got, want)
			}
			now = got
		}
		if dev.Stats().Relocations == filled.Relocations {
			t.Fatalf("lanes=%d: no garbage collection during the requests", lanes)
		}
		sameFTLState(t, dev.ftl, twin)
		if dev.Stats() != twin.stats {
			t.Fatalf("lanes=%d: device stats %+v, per-page reference %+v", lanes, dev.Stats(), twin.stats)
		}
		if dev.BusyTotal() != brute.BusyTotal() {
			t.Fatalf("lanes=%d: busy %v, per-page reference %v", lanes, dev.BusyTotal(), brute.BusyTotal())
		}
	}
}
