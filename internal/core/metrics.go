// Package core implements the paper's primary contribution: the
// pitfall-aware benchmarking methodology for persistent tree structures
// on flash SSDs. It defines the metrics of §3.3 (KV throughput, device
// throughput, application- and device-level write amplification, space
// amplification) and the experiment runner that wires a workload, an
// engine, a filesystem and a simulated SSD together and samples
// everything over virtual time. A run's steady-state numbers
// (Result.Steady) are taken over the final quarter of its samples
// (Series.TailStats).
package core

import (
	"ptsbench/internal/blockdev"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// Sample is one instrumentation snapshot. Cumulative counters are
// recorded raw; windowed rates are derived between samples at reporting
// time, which is how the paper suggests computing amplification figures
// (cumulative ratios rather than small-window ratios, §4.1).
type Sample struct {
	T sim.Duration // virtual time since measurement start

	// Cumulative counters since measurement start.
	Ops        int64
	Reads      int64
	UserBytes  int64 // application payload written
	HostWriteB int64 // device-level host writes (iostat)
	HostReadB  int64
	FlashPages int64 // flash-level programs (SMART)
	HostPages  int64 // host pages written (SMART)
	StallTime  sim.Duration

	// Point-in-time gauges.
	DiskUsedBytes int64
	CacheFillPgs  int64
}

// WAA returns the cumulative application-level write amplification at
// this sample: host bytes written per user byte accepted (§2.1.3; the
// measurement includes filesystem overhead exactly as the paper's
// iostat-based metric does).
func (s Sample) WAA() float64 {
	if s.UserBytes == 0 {
		return 0
	}
	return float64(s.HostWriteB) / float64(s.UserBytes)
}

// WAD returns the cumulative device-level write amplification at this
// sample: flash pages programmed per host page written (§2.2.3, measured
// via SMART as in the paper).
func (s Sample) WAD() float64 {
	if s.HostPages == 0 {
		return 1
	}
	return float64(s.FlashPages) / float64(s.HostPages)
}

// EndToEndWA returns WAA*WAD — the paper's end-to-end write
// amplification from application to flash cells (§4.2.ii).
func (s Sample) EndToEndWA() float64 { return s.WAA() * s.WAD() }

// Series extracts windowed rates from consecutive samples.
type Series struct {
	Samples []Sample
}

// ThroughputSeries returns (minutes, kops/s) averaged over windows of
// `window` samples — the paper plots 10-minute averages (§3.3).
func (ser Series) ThroughputSeries(window int) (tMin, kops []float64) {
	if window < 1 {
		window = 1
	}
	for i := window; i < len(ser.Samples); i += window {
		a, b := ser.Samples[i-window], ser.Samples[i]
		dt := (b.T - a.T).Seconds()
		if dt <= 0 {
			continue
		}
		tMin = append(tMin, b.T.Minutes())
		kops = append(kops, float64(b.Ops-a.Ops)/dt/1000)
	}
	return tMin, kops
}

// RateSeries returns windowed device write/read throughput in MB/s.
func (ser Series) RateSeries(window int) (tMin, writeMBps, readMBps []float64) {
	if window < 1 {
		window = 1
	}
	for i := window; i < len(ser.Samples); i += window {
		a, b := ser.Samples[i-window], ser.Samples[i]
		dt := (b.T - a.T).Seconds()
		if dt <= 0 {
			continue
		}
		tMin = append(tMin, b.T.Minutes())
		writeMBps = append(writeMBps, float64(b.HostWriteB-a.HostWriteB)/dt/(1<<20))
		readMBps = append(readMBps, float64(b.HostReadB-a.HostReadB)/dt/(1<<20))
	}
	return tMin, writeMBps, readMBps
}

// WASeries returns cumulative WA-A and WA-D over time.
func (ser Series) WASeries(window int) (tMin, waa, wad []float64) {
	if window < 1 {
		window = 1
	}
	for i := window; i < len(ser.Samples); i += window {
		s := ser.Samples[i]
		tMin = append(tMin, s.T.Minutes())
		waa = append(waa, s.WAA())
		wad = append(wad, s.WAD())
	}
	return tMin, waa, wad
}

// SteadyStats aggregates the tail of the run.
type SteadyStats struct {
	ThroughputKOps float64
	WAA            float64
	WAD            float64
	EndToEndWA     float64
	DiskUsedBytes  int64 // maximum observed (the paper reports max)
}

// TailStats computes steady-state figures over the last `fraction` of the
// run (e.g. 0.25 = final quarter).
func (ser Series) TailStats(fraction float64) SteadyStats {
	n := len(ser.Samples)
	if n < 2 {
		return SteadyStats{}
	}
	start := n - 1 - int(float64(n-1)*fraction)
	if start < 0 {
		start = 0
	}
	if start >= n-1 {
		start = n - 2
	}
	a, b := ser.Samples[start], ser.Samples[n-1]
	dt := (b.T - a.T).Seconds()
	st := SteadyStats{
		WAA:        b.WAA(),
		WAD:        b.WAD(),
		EndToEndWA: b.EndToEndWA(),
	}
	if dt > 0 {
		st.ThroughputKOps = float64(b.Ops-a.Ops) / dt / 1000
	}
	for _, s := range ser.Samples {
		if s.DiskUsedBytes > st.DiskUsedBytes {
			st.DiskUsedBytes = s.DiskUsedBytes
		}
	}
	return st
}

// StatsSource is the slice of an engine (or a sharded store — anything
// aggregating engines) the collector samples.
type StatsSource interface {
	Stats() kv.EngineStats
	DiskUsageBytes() int64
}

// Collector samples a running experiment over one or more devices (the
// per-shard devices of a sharded store sum into one host-visible view).
type Collector struct {
	devs     []blockdev.Host
	src      StatsSource
	baseDev  blockdev.Counters
	baseSSD  flash.Stats
	baseEng  kv.EngineStats
	interval sim.Duration
	next     sim.Duration
	start    sim.Duration
	series   Series
}

// NewCollector snapshots baselines at the measurement start so that the
// load phase is excluded (the paper's plots omit loading).
func NewCollector(devs []blockdev.Host, src StatsSource, start, interval sim.Duration) *Collector {
	c := &Collector{
		devs:     devs,
		src:      src,
		baseEng:  src.Stats(),
		interval: interval,
		start:    start,
		next:     start,
	}
	c.baseDev, c.baseSSD, _ = sumDevs(c.devs)
	c.Record(start) // t=0 sample
	return c
}

// sumDevs sums the host counters, the flash counters and the flash
// write-cache fill over devs.
func sumDevs(devs []blockdev.Host) (blockdev.Counters, flash.Stats, int64) {
	var devC blockdev.Counters
	var ssdC flash.Stats
	var cacheFill int64
	for _, d := range devs {
		devC = devC.Add(d.Counters())
		// Flash-internals stats exist only on the simulated device; a
		// file-backed device contributes zeros (real hardware hides its
		// FTL the same way).
		if sd, ok := d.(interface{ SSD() *flash.Device }); ok {
			ssdC = ssdC.Add(sd.SSD().Stats())
			cacheFill += sd.SSD().CacheFillPages()
		}
	}
	return devC, ssdC, cacheFill
}

// Due reports whether a sample is due at time now.
func (c *Collector) Due(now sim.Duration) bool { return now >= c.next }

// Record captures a sample at time now and schedules the next one.
func (c *Collector) Record(now sim.Duration) {
	devSum, ssdSum, cacheFill := sumDevs(c.devs)
	devC := devSum.Sub(c.baseDev)
	ssdC := ssdSum.Sub(c.baseSSD)
	engC := c.src.Stats().Sub(c.baseEng)
	c.series.Samples = append(c.series.Samples, Sample{
		T:             now - c.start,
		Ops:           engC.Puts + engC.Gets,
		Reads:         engC.Gets,
		UserBytes:     engC.UserBytesWritten,
		HostWriteB:    devC.BytesWritten,
		HostReadB:     devC.BytesRead,
		FlashPages:    ssdC.FlashPagesWritten,
		HostPages:     ssdC.HostPagesWritten,
		StallTime:     engC.StallTime,
		DiskUsedBytes: c.src.DiskUsageBytes(),
		CacheFillPgs:  cacheFill,
	})
	for c.next <= now {
		c.next += c.interval
	}
}

// Series returns the collected series.
func (c *Collector) Series() Series { return c.series }

// MeanKOps returns the mean operation rate (KOps/s) over the whole
// measured phase — steadier than the tail quarter when background
// compaction bursts make the tail noisy (queue-depth sweeps use it).
func (ser Series) MeanKOps() float64 {
	n := len(ser.Samples)
	if n == 0 {
		return 0
	}
	last := ser.Samples[n-1]
	if last.T <= 0 {
		return 0
	}
	return float64(last.Ops) / last.T.Seconds() / 1000
}

// SpaceAmplification is disk footprint over logical dataset size
// (§2.1.4).
func SpaceAmplification(diskUsedBytes, datasetBytes int64) float64 {
	if datasetBytes == 0 {
		return 0
	}
	return float64(diskUsedBytes) / float64(datasetBytes)
}
