package main

// metricDef declares one end-to-end metric: the single source for the
// suite's summary, -compare and (checked by a test) BENCHMARK.json.
type metricDef struct {
	name, unit string
	// lower: smaller is better.
	lower bool
	// bound is the share of the base value by which the metric may get
	// worse before it counts as a regression.
	bound float64
	// simulated metrics are deterministic in virtual time: every
	// repetition of a (seed, seconds) pair must report the identical
	// value, and a change that only speeds the simulator up must not
	// move them at all. Their bound applies to modelled-design changes
	// and covers the variation between seeds.
	simulated bool
}

// endToEndDefs are what a user of the laboratory sees: how fast the
// simulator runs a cell on the host, and what the simulated design does.
var endToEndDefs = []metricDef{
	{"host_ns_per_op", "ns", true, 0.25, false},           // host wall time of the measured phase per completed user op, tracing off
	{"allocs_per_op", "count", true, 0.06, false},         // heap allocations (runtime.MemStats.Mallocs) over the measured phase per op
	{"alloc_bytes_per_op", "B", true, 0.05, false},        // heap bytes allocated (TotalAlloc) over the measured phase per op
	{"peak_rss_mb", "MiB", true, 0.10, false},             // resident-set high-water mark after the measured phase, first set-up included
	{"setup_s", "s", true, 0.25, false},                   // stack build + drive aging + Load + FlushAll, median of 3 set-ups per run
	{"sim_kops", "virt_KOps/s", false, 0.12, true},        // steady throughput in virtual time at paper scale: Series.TailStats(0.25).ThroughputKOps x Scale
	{"sim_lat_mean_us", "virt_us", true, 0.05, true},      // mean virtual submit-to-complete latency at paper scale
	{"sim_lat_worst1pct_us", "virt_us", true, 0.12, true}, // mean of the same latency over the slowest 1% of ops (>= 10 000 samples), 0.8% histogram
	{"wa_e2e", "B/B", true, 0.05, true},                   // flash bytes programmed per user byte: steady WA-A x WA-D
	{"space_amp", "B/B", true, 0.05, true},                // maximum device footprint over dataset size
}

// layerShares are the per-layer metrics whose sum accounts for the traced
// run's host time per op, in stack order.
var layerShares = []string{
	"driver.self_ns_per_op",
	"store.self_ns_per_op",
	"replica.self_ns_per_op",
	"engine.self_ns_per_op",
	"blockdev.busy_ns_per_op",
}
