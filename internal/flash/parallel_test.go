package flash

import (
	"testing"
	"time"

	"ptsbench/internal/sim"
)

// parallelConfig returns the small test device with a 4x4 lane array.
func parallelConfig() Config {
	cfg := testConfig()
	cfg.Profile.Channels = 4
	cfg.Profile.Ways = 4
	return cfg
}

func TestParallelLanesDefaultOne(t *testing.T) {
	d := newTestDevice(t, testConfig())
	if len(d.laneWork) != 1 {
		t.Fatalf("default lanes = %d, want 1", len(d.laneWork))
	}
	d = newTestDevice(t, parallelConfig())
	if len(d.laneWork) != 16 {
		t.Fatalf("4x4 lanes = %d, want 16", len(d.laneWork))
	}
}

func TestParallelReadsOverlap(t *testing.T) {
	d := newTestDevice(t, parallelConfig())
	// Two single-page reads at the same time to different lanes (lpn 0
	// and 1) complete at the same instant: full overlap.
	d1 := d.SubmitRead(0, 0, 1)
	d2 := d.SubmitRead(0, 1, 1)
	if d1 != d2 {
		t.Fatalf("reads on distinct lanes should overlap: %v vs %v", d1, d2)
	}
	// A read to the SAME lane (lpn 16 maps to lane 0 again) queues.
	d3 := d.SubmitRead(0, 16, 1)
	if d3 <= d1 {
		t.Fatalf("same-lane read should queue: %v vs %v", d3, d1)
	}
}

func TestSequentialBandwidthPreserved(t *testing.T) {
	// A large sequential read stripes over all lanes; each lane runs at
	// 1/16 bandwidth on 1/16 of the pages, so the completion time
	// matches the single-lane device exactly.
	serial := newTestDevice(t, testConfig())
	parallel := newTestDevice(t, parallelConfig())
	const n = 256
	if got, want := parallel.SubmitRead(0, 0, n), serial.SubmitRead(0, 0, n); got != want {
		t.Fatalf("sequential read: %v on 16 lanes vs %v on 1", got, want)
	}
}

func TestParallelRandomReadThroughputScales(t *testing.T) {
	// N random-ish single-page reads issued in batches of qd: the
	// makespan must shrink (or hold) as qd grows, up to the lane count.
	makespan := func(qd int) sim.Duration {
		d := newTestDevice(t, parallelConfig())
		var now sim.Duration
		const n = 256
		for i := 0; i < n; i += qd {
			batchEnd := now
			for k := 0; k < qd && i+k < n; k++ {
				// Consecutive lpns land on distinct lanes.
				if done := d.SubmitRead(now, int64((i+k)%int(d.LogicalPages())), 1); done > batchEnd {
					batchEnd = done
				}
			}
			now = batchEnd
		}
		return now
	}
	m1, m4, m16, m32 := makespan(1), makespan(4), makespan(16), makespan(32)
	if !(m4 < m1) || !(m16 < m4) {
		t.Fatalf("makespan should shrink with queue depth: qd1=%v qd4=%v qd16=%v", m1, m4, m16)
	}
	if m32 > m16 {
		t.Fatalf("beyond the lane count the makespan must not regress: qd16=%v qd32=%v", m16, m32)
	}
}

func TestParallelWriteGCStaysConsistent(t *testing.T) {
	// Hammer a 16-lane device with random writes well past capacity so
	// GC runs on every lane, then verify FTL invariants and WA-D > 1.
	cfg := parallelConfig()
	d := newTestDevice(t, cfg)
	rng := sim.NewRNG(11)
	pages := d.LogicalPages()
	var now sim.Duration
	for i := int64(0); i < 3*pages; i++ {
		now = d.SubmitWrite(now, int64(rng.Uint64n(uint64(pages))), 1)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("invariants after parallel GC: %v", err)
	}
	if d.Stats().WAD() <= 1 {
		t.Fatalf("WA-D = %v, want > 1 after overwrite churn", d.Stats().WAD())
	}
	if now <= 0 {
		t.Fatal("no time accrued")
	}
}

func TestScaledKeepsParallelism(t *testing.T) {
	p := testProfile().WithParallelism(8, 2).Scaled(64)
	if p.ParallelLanes() != 16 {
		t.Fatalf("Scaled dropped parallelism: %d lanes", p.ParallelLanes())
	}
}

func TestPendingFIFOStaysBounded(t *testing.T) {
	// Regression test for the write-back cache FIFO: a long run that
	// appends and destages in lockstep must not grow the pending slice
	// (or its drained prefix) without bound.
	cfg := testConfig()
	cfg.Profile.CacheBytes = 1 << 20 // 256 pages of cache
	cfg.Profile.CacheWriteBW = 1 << 30
	d := newTestDevice(t, cfg)
	var now sim.Duration
	rng := sim.NewRNG(3)
	pages := d.LogicalPages()
	for i := 0; i < 200000; i++ {
		now = d.SubmitWrite(now, int64(rng.Uint64n(uint64(pages))), 1)
		// Give the destage engine idle time so the queue keeps churning
		// without ever fully draining.
		now += 50 * time.Microsecond
		if len(d.pending) > 4096 {
			t.Fatalf("pending grew to %d entries (head %d) at op %d",
				len(d.pending), d.pendingHead, i)
		}
	}
}
