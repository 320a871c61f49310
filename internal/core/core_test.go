package core

import (
	"math"
	"testing"
	"time"

	"ptsbench/internal/flash"
	"ptsbench/internal/sim"
	"ptsbench/internal/workload"
)

func TestSampleMetrics(t *testing.T) {
	s := Sample{
		UserBytes:  1000,
		HostWriteB: 12000,
		HostPages:  100,
		FlashPages: 210,
	}
	if got := s.WAA(); got != 12.0 {
		t.Fatalf("WAA = %v, want 12", got)
	}
	if got := s.WAD(); got != 2.1 {
		t.Fatalf("WAD = %v, want 2.1", got)
	}
	if got := s.EndToEndWA(); math.Abs(got-25.2) > 1e-9 {
		t.Fatalf("EndToEndWA = %v, want 25.2", got)
	}
	var zero Sample
	if zero.WAA() != 0 || zero.WAD() != 1 {
		t.Fatal("zero sample defaults wrong")
	}
}

func mkSeries(n int, opsRate float64) Series {
	var ser Series
	for i := 0; i <= n; i++ {
		ser.Samples = append(ser.Samples, Sample{
			T:          time.Duration(i) * 10 * time.Second,
			Ops:        int64(float64(i) * 10 * opsRate),
			HostWriteB: int64(i) * 1000,
		})
	}
	return ser
}

func TestThroughputSeries(t *testing.T) {
	ser := mkSeries(120, 1000)
	tm, kops := ser.ThroughputSeries(60)
	if len(tm) != 2 {
		t.Fatalf("expected 2 windows, got %d", len(tm))
	}
	if math.Abs(kops[0]-1.0) > 0.01 {
		t.Fatalf("kops = %v, want 1.0", kops[0])
	}
	if math.Abs(tm[0]-10.0) > 0.01 {
		t.Fatalf("time = %v min, want 10", tm[0])
	}
}

func TestTailStats(t *testing.T) {
	ser := mkSeries(100, 200)
	ser.Samples[50].DiskUsedBytes = 999 // peak in the middle
	st := ser.TailStats(0.25)
	if math.Abs(st.ThroughputKOps-0.2) > 0.01 {
		t.Fatalf("tail throughput %v, want 0.2", st.ThroughputKOps)
	}
	if st.DiskUsedBytes != 999 {
		t.Fatalf("max disk usage %d, want 999", st.DiskUsedBytes)
	}
	if (Series{}).TailStats(0.5) != (SteadyStats{}) {
		t.Fatal("empty series should give zero stats")
	}
}

func TestSpaceAmplification(t *testing.T) {
	if got := SpaceAmplification(150, 100); got != 1.5 {
		t.Fatalf("space amp %v", got)
	}
	if got := SpaceAmplification(1, 0); got != 0 {
		t.Fatal("zero dataset should not divide")
	}
}

func TestSpecValidateDefaults(t *testing.T) {
	s, err := (Spec{}).Validate()
	if err != nil {
		t.Fatal(err)
	}
	if s.Scale != 128 || s.ValueBytes != 4000 || s.DatasetFraction != 0.5 {
		t.Fatalf("defaults wrong: %+v", s)
	}
	if s.Duration != 210*time.Minute || s.PartitionFraction != 1 {
		t.Fatalf("duration/partition defaults wrong: %+v", s)
	}
	if _, err := (Spec{DatasetFraction: 0.99}).Validate(); err == nil {
		t.Fatal("oversized dataset fraction should fail")
	}
}

// TestDeviceProfiles: the default device is the paper's 400 GB SSD1, and
// the three stock profiles a spec can name are told apart by name.
func TestDeviceProfiles(t *testing.T) {
	d := DefaultDevice()
	if d.CapacityBytes != 400<<30 || d.Profile != flash.ProfileSSD1() {
		t.Fatalf("default device should be the paper's 400 GB SSD1: %+v", d)
	}
	seen := map[string]bool{}
	for _, p := range []flash.Profile{flash.ProfileSSD1(), flash.ProfileSSD2(), flash.ProfileSSD3()} {
		if p.Name == "" || seen[p.Name] {
			t.Fatalf("profile name %q is empty or repeated", p.Name)
		}
		seen[p.Name] = true
	}
}

// TestRunSmallLSM is the integration test: a small, short experiment end
// to end.
func TestRunSmallLSM(t *testing.T) {
	res, err := Run(Spec{
		Engine:   LSM,
		Scale:    1024,
		Duration: 30 * time.Minute,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutOfSpace {
		t.Fatal("unexpected OOS")
	}
	if res.NumKeys == 0 || res.DatasetBytes == 0 {
		t.Fatal("dataset not sized")
	}
	if len(res.Series.Samples) < 10 {
		t.Fatalf("too few samples: %d", len(res.Series.Samples))
	}
	if res.Steady.ThroughputKOps <= 0 {
		t.Fatal("no throughput measured")
	}
	if res.Steady.WAA < 1 {
		t.Fatalf("WA-A %v below 1", res.Steady.WAA)
	}
	if res.Steady.WAD < 1 {
		t.Fatalf("WA-D %v below 1", res.Steady.WAD)
	}
	if res.SpaceAmp < 1 {
		t.Fatalf("space amp %v below 1", res.SpaceAmp)
	}
	if res.ScaledKOps <= res.Steady.ThroughputKOps {
		t.Fatal("scaled throughput should exceed raw at scale > 1")
	}
	if res.FracLBAs <= 0 || res.FracLBAs > 1 {
		t.Fatalf("FracLBAs %v out of range", res.FracLBAs)
	}
	if len(res.LBACDF) != 101 {
		t.Fatalf("CDF length %d", len(res.LBACDF))
	}
}

func TestRunSmallBTree(t *testing.T) {
	res, err := Run(Spec{
		Engine:   BTree,
		Scale:    1024,
		Duration: 30 * time.Minute,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutOfSpace {
		t.Fatal("unexpected OOS")
	}
	if res.Steady.ThroughputKOps <= 0 || res.Steady.WAA < 1 {
		t.Fatalf("implausible steady stats: %+v", res.Steady)
	}
	// The B+Tree must stay inside a confined LBA range (Fig 4).
	if res.FracLBAs > 0.9 {
		t.Fatalf("B+Tree wrote %.2f of LBAs, expected confined", res.FracLBAs)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(Spec{
			Engine:   LSM,
			Scale:    2048,
			Duration: 20 * time.Minute,
			Seed:     3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steady != b.Steady {
		t.Fatalf("steady stats differ: %+v vs %+v", a.Steady, b.Steady)
	}
	if len(a.Series.Samples) != len(b.Series.Samples) {
		t.Fatal("sample counts differ")
	}
	for i := range a.Series.Samples {
		if a.Series.Samples[i] != b.Series.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

func TestRunPreconditionedSlower(t *testing.T) {
	// Pitfall #3 at the runner level: preconditioning must not speed
	// things up, and for the B+Tree it must visibly hurt.
	base := Spec{Engine: BTree, Scale: 1024, Duration: 40 * time.Minute, Seed: 5}
	trimmed, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	prec := base
	prec.Initial = Preconditioned
	precRes, err := Run(prec)
	if err != nil {
		t.Fatal(err)
	}
	if precRes.Steady.WAD <= trimmed.Steady.WAD {
		t.Fatalf("preconditioned WA-D (%v) should exceed trimmed (%v)",
			precRes.Steady.WAD, trimmed.Steady.WAD)
	}
}

func TestRunSoftwareOP(t *testing.T) {
	// Pitfall #6: extra OP lowers WA-D for the LSM on a preconditioned
	// partition.
	base := Spec{Engine: LSM, Scale: 1024, Duration: 40 * time.Minute, Seed: 5,
		Initial: Preconditioned}
	noOP, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withOP := base
	withOP.PartitionFraction = 0.75
	opRes, err := Run(withOP)
	if err != nil {
		t.Fatal(err)
	}
	if opRes.Steady.WAD >= noOP.Steady.WAD {
		t.Fatalf("extra OP should reduce WA-D: %v vs %v",
			opRes.Steady.WAD, noOP.Steady.WAD)
	}
}

func TestRunOutOfSpace(t *testing.T) {
	// The paper's Fig 5/6: RocksDB cannot sustain the largest datasets
	// (space amplification ~1.4 at 0.88 x capacity exceeds the drive).
	// The full 210-minute run must hit ENOSPC.
	res, err := Run(Spec{
		Engine:          LSM,
		Scale:           1024,
		DatasetFraction: 0.88,
		Duration:        210 * time.Minute,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OutOfSpace {
		t.Fatal("LSM at 0.88 dataset fraction should run out of space")
	}
}

func TestRunMixedWorkload(t *testing.T) {
	res, err := Run(Spec{
		Engine:       LSM,
		Scale:        1024,
		ReadFraction: 0.5,
		Dist:         workload.Uniform,
		Duration:     20 * time.Minute,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Series.Samples[len(res.Series.Samples)-1]
	if last.Reads == 0 {
		t.Fatal("mixed workload produced no reads")
	}
	frac := float64(last.Reads) / float64(last.Ops)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("read fraction %.2f, want ~0.5", frac)
	}
}

func TestCollectorBaselinesExcludeLoad(t *testing.T) {
	// The first sample of a run must be ~zero even though the load
	// phase wrote a lot.
	res, err := Run(Spec{
		Engine:   BTree,
		Scale:    2048,
		Duration: 20 * time.Minute,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	first := res.Series.Samples[0]
	if first.Ops != 0 || first.HostWriteB != 0 || first.FlashPages != 0 {
		t.Fatalf("first sample not zeroed: %+v", first)
	}
	if res.LoadHostBytes == 0 {
		t.Fatal("load diagnostics missing")
	}
}

var _ = sim.Duration(0)

func TestLatencyHistogramBasics(t *testing.T) {
	h := NewLatencyHistogram()
	if h.total != 0 || h.Percentile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should read zero")
	}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.total != 1000 {
		t.Fatalf("count = %d", h.total)
	}
	if h.Percentile(0) != time.Microsecond || h.max != time.Millisecond {
		t.Fatalf("min/max: %v/%v", h.Percentile(0), h.max)
	}
	// Log-bucket resolution is ~4%; allow 10% slack.
	p50 := h.Percentile(0.50)
	if p50 < 440*time.Microsecond || p50 > 560*time.Microsecond {
		t.Fatalf("p50 = %v, want ~500µs", p50)
	}
	p99 := h.Percentile(0.99)
	if p99 < 890*time.Microsecond || p99 > 1100*time.Microsecond {
		t.Fatalf("p99 = %v, want ~990µs", p99)
	}
	mean := h.Mean()
	if mean < 480*time.Microsecond || mean > 520*time.Microsecond {
		t.Fatalf("mean = %v, want ~500µs", mean)
	}
	if h.Percentile(1) != h.max {
		t.Fatal("percentile 1 should clamp to max")
	}
}

func TestLatencyHistogramTail(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 9900; i++ {
		h.Record(100 * time.Microsecond)
	}
	for i := 0; i < 100; i++ {
		h.Record(50 * time.Millisecond) // 1% slow tail
	}
	s := h.Percentiles()
	if s.P50 > 150*time.Microsecond {
		t.Fatalf("p50 = %v, want ~100µs", s.P50)
	}
	if s.P999 < 40*time.Millisecond {
		t.Fatalf("p99.9 = %v should capture the tail", s.P999)
	}
	if s.String() == "" {
		t.Fatal("summary should render")
	}
}

func TestLatencyHistogramBoundsClamp(t *testing.T) {
	h := NewLatencyHistogram()
	h.Record(-time.Second)    // clamps to 0
	h.Record(100 * time.Hour) // clamps to top bucket
	h.Record(time.Nanosecond) // below min bucket
	if h.total != 3 {
		t.Fatalf("count %d", h.total)
	}
	if h.Percentile(0.99) <= 0 {
		t.Fatal("clamped values should still report")
	}
}

func TestRunReportsLatency(t *testing.T) {
	res, err := Run(Spec{
		Engine:   LSM,
		Scale:    2048,
		Duration: 15 * time.Minute,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency.Count == 0 {
		t.Fatal("no latencies recorded")
	}
	if res.Latency.P50 <= 0 || res.Latency.P99 < res.Latency.P50 {
		t.Fatalf("implausible latency summary: %v", res.Latency)
	}
	// The paper-scale mean must be consistent with throughput: mean
	// per-op time ~ 1/rate for a single-threaded driver.
	meanSec := res.Latency.Mean.Seconds()
	rate := res.Steady.ThroughputKOps * 1000 * float64(res.Spec.Scale)
	if rate > 0 {
		implied := 1 / rate
		if meanSec < implied/4 || meanSec > implied*4 {
			t.Fatalf("mean latency %v inconsistent with rate %.0f ops/s", res.Latency.Mean, rate)
		}
	}
}
