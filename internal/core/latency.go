package core

import (
	"fmt"
	"math"

	"ptsbench/internal/sim"
)

// LatencyHistogram records per-operation virtual latencies in
// logarithmically spaced buckets (~4% resolution), cheap enough to feed
// every operation of a run. The paper's companion work (SILK, bLSM)
// shows that LSM throughput numbers hide latency spikes; the histogram
// lets the harness report tail percentiles alongside throughput.
type LatencyHistogram struct {
	counts []uint64
	total  uint64
	min    sim.Duration
	max    sim.Duration
	sum    float64
}

// latBuckets spans 1µs .. ~18h in 1024 log-spaced buckets.
const (
	latBuckets  = 1024
	latMinNanos = 1e3   // 1µs
	latMaxNanos = 65e12 // ~18h
)

// NewLatencyHistogram returns an empty histogram.
func NewLatencyHistogram() *LatencyHistogram {
	return &LatencyHistogram{counts: make([]uint64, latBuckets)}
}

// bucketOf maps a latency to its bucket index.
func bucketOf(d sim.Duration) int {
	ns := float64(d)
	if ns < latMinNanos {
		return 0
	}
	if ns >= latMaxNanos {
		return latBuckets - 1
	}
	frac := math.Log(ns/latMinNanos) / math.Log(latMaxNanos/latMinNanos)
	i := int(frac * float64(latBuckets-1))
	if i < 0 {
		i = 0
	}
	if i >= latBuckets {
		i = latBuckets - 1
	}
	return i
}

// bucketValue returns the representative latency of bucket i (its lower
// bound).
func bucketValue(i int) sim.Duration {
	frac := float64(i) / float64(latBuckets-1)
	ns := latMinNanos * math.Exp(frac*math.Log(latMaxNanos/latMinNanos))
	return sim.Duration(ns)
}

// Record adds one observation.
func (h *LatencyHistogram) Record(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[bucketOf(d)]++
	h.total++
	h.sum += float64(d)
	if h.total == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Mean returns the average latency.
func (h *LatencyHistogram) Mean() sim.Duration {
	if h.total == 0 {
		return 0
	}
	return sim.Duration(h.sum / float64(h.total))
}

// Percentile returns the latency at quantile q in (0, 1], e.g. 0.99. The
// result is bucket-resolution (~4%).
func (h *LatencyHistogram) Percentile(q float64) sim.Duration {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			return bucketValue(i)
		}
	}
	return h.max
}

// Percentiles returns the common reporting set.
func (h *LatencyHistogram) Percentiles() LatencySummary {
	return LatencySummary{
		Count: h.total,
		Mean:  h.Mean(),
		P50:   h.Percentile(0.50),
		P90:   h.Percentile(0.90),
		P99:   h.Percentile(0.99),
		P999:  h.Percentile(0.999),
		Max:   h.max,
	}
}

// LatencySummary is a compact percentile report.
type LatencySummary struct {
	Count                     uint64
	Mean, P50, P90, P99, P999 sim.Duration
	Max                       sim.Duration
}

// String renders the summary on one line.
func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p90=%v p99=%v p99.9=%v max=%v",
		s.Count, s.Mean, s.P50, s.P90, s.P99, s.P999, s.Max)
}
