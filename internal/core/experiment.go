package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/engine"
	"ptsbench/internal/extfs"
	"ptsbench/internal/filedev"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
	"ptsbench/internal/store"
	"ptsbench/internal/workload"
)

// EngineKind names the persistent tree structure under test. It is the
// engine driver's registry name (see internal/engine), so the set of
// valid kinds is open: adding an engine package that registers itself
// makes its name valid everywhere — specs, spec files, the CLI —
// without touching this package.
type EngineKind string

// Names of the built-in engines, as convenience constants. The strings
// are the registry keys; a fourth engine needs no constant here.
const (
	// LSM is the RocksDB-style log-structured merge tree.
	LSM EngineKind = "lsm"
	// BTree is the WiredTiger-style B+Tree.
	BTree EngineKind = "btree"
	// Betree is the buffered copy-on-write Bε-tree.
	Betree EngineKind = "betree"
)

// String implements fmt.Stringer. The zero value reads as the default
// engine (LSM), matching Validate.
func (k EngineKind) String() string {
	if k == "" {
		return string(LSM)
	}
	return string(k)
}

// ParseEngine maps an engine name to its kind, verifying it against the
// driver registry.
func ParseEngine(name string) (EngineKind, error) {
	if _, err := engine.Lookup(name); err != nil {
		return "", err
	}
	return EngineKind(name), nil
}

// InitialState is the drive state before the experiment (§3.4).
type InitialState int

// Initial states.
const (
	// Trimmed: every block discarded, factory-fresh dynamics.
	Trimmed InitialState = iota
	// Preconditioned: sequential fill plus 2× capacity random writes.
	Preconditioned
)

// String implements fmt.Stringer.
func (s InitialState) String() string {
	if s == Preconditioned {
		return "preconditioned"
	}
	return "trimmed"
}

// ParseInitialState maps an initial-state name (as produced by String)
// back to its value.
func ParseInitialState(name string) (InitialState, error) {
	switch name {
	case "trimmed":
		return Trimmed, nil
	case "preconditioned":
		return Preconditioned, nil
	default:
		return 0, fmt.Errorf("core: unknown initial state %q (have trimmed, preconditioned)", name)
	}
}

// DeviceSpec describes the simulated SSD at full (paper) scale.
type DeviceSpec struct {
	Profile       flash.Profile
	CapacityBytes int64
	PageSize      int
	PagesPerBlock int
}

// DefaultDevice returns the paper's primary testbed: a 400 GB
// enterprise-class flash SSD (SSD1). PagesPerBlock describes the erase
// stripe (superblock) at full scale: enterprise NVMe drives erase across
// all dies at once, so the effective GC unit is hundreds of megabytes.
func DefaultDevice() DeviceSpec {
	return DeviceSpec{
		Profile:       flash.ProfileSSD1(),
		CapacityBytes: 400 << 30,
		PageSize:      4096,
		PagesPerBlock: 64 << 10, // 256 MiB erase stripes -> ~1600 per drive
	}
}

// Spec fully describes one experiment run. It is pure data: every field
// — the engine included, via its registry name and string-valued
// tunables — serializes to JSON and back (see the codec in
// specjson.go), so experiments can be saved, diffed and launched from
// spec files.
type Spec struct {
	Name   string
	Device DeviceSpec

	// Scale divides capacity, bandwidths and engine sizings while
	// keeping the virtual time axis; dimensionless results are
	// invariant (flash.Profile.Scaled states the scaling model).
	Scale int64

	Engine EngineKind

	// DatasetFraction sizes the dataset relative to full device
	// capacity (the paper's default is 0.5).
	DatasetFraction float64
	ValueBytes      int
	ReadFraction    float64
	Dist            workload.Dist
	// ZipfTheta is the Zipfian skew (only meaningful with
	// Dist == workload.Zipfian; 0 selects the YCSB default 0.99).
	ZipfTheta float64

	Initial InitialState

	// PartitionFraction < 1 reserves the tail of the LBA space as
	// software over-provisioning (never written, stays trimmed).
	PartitionFraction float64

	// QueueDepth models host I/O concurrency in the measured phase: up
	// to QueueDepth consecutive read operations are submitted at the
	// same virtual time — a multi-threaded client keeping QueueDepth
	// requests in flight — and the clock advances to the slowest
	// completion. It also sets the engines' internal read parallelism
	// (LSM SSTable probe waves and compaction read batching, B+Tree
	// scan sibling prefetch). At the default of 1 the run is the
	// paper's strictly serial closed loop; with larger values
	// throughput grows until the device's Channels × Ways lane count
	// saturates (writes always execute serially, preserving the
	// engines' stall and throttling semantics).
	QueueDepth int

	// Shards splits the serving layer into N hash-partitioned shards,
	// each owning its own engine instance on its own slice of the device
	// (capacity, dataset and engine sizing all divide by N). Shards
	// share no state, so the result does not depend on the order or the
	// goroutine they are serviced on (a pump services them on the
	// caller's; loading and flushing fan out), and a 1-shard run is
	// bit-identical to the historical single-engine path. Defaults to 1.
	Shards int

	// Clients is the number of closed-loop clients driving the store,
	// each with its own deterministic key stream (see
	// workload.ClientSeed). Operations submitted by different clients at
	// overlapping virtual times queue FIFO on their key's shard, so
	// throughput scales with shards while per-op latency grows with
	// queueing. Defaults to Shards (one client per shard minimum).
	Clients int

	// Skew routes this fraction of operations to a hot 1/16th of the
	// keyspace on top of the base distribution — cross-shard load
	// imbalance for sharded runs. 0 (the default) draws no extra
	// randomness, keeping historical key streams bit-identical.
	Skew float64

	// Replicas turns every shard into a replica group of N complete
	// engine stacks (internal/replica), each on its own private device
	// the same size as the shard's slice — so replication honestly
	// multiplies device traffic and space while throughput stays
	// logical. Defaults to 1 (no group is constructed; the run is
	// bit-identical to the unreplicated store).
	Replicas int

	// ReplMode is the replication discipline for Replicas > 1: "chain"
	// (writes flow head→tail, ack at the tail, reads at the tail) or
	// "quorum" (writes everywhere, ack at ⌈R/2⌉+1, reads with
	// read-repair). Defaults to "chain" for replicated specs; ignored
	// (and left empty) at Replicas == 1.
	ReplMode string

	// Duration is the measured phase length in virtual time; SampleEvery
	// is the instrumentation period.
	Duration    sim.Duration
	SampleEvery sim.Duration

	Seed uint64

	// Tunables are declarative engine knob overrides, applied to the
	// engine's sized default config after scaling. Keys live in the
	// engine's namespace ("epsilon" for betree, "memtable_bytes" for
	// lsm, ...); `ptsbench engines` lists every knob. Unlike the
	// closure-based Tweak hooks they replace, tunables serialize, so a
	// Spec with engine overrides is still a plain JSON document.
	Tunables map[string]string

	// Backend selects the storage authority under the filesystem:
	// "sim" (the default; the simulated flash device) or "file" (one
	// real file per shard through internal/filedev, with measured I/O
	// latencies folded into virtual time).
	Backend string

	// Dir is where the file backend keeps its per-shard images. Empty
	// runs in a temporary directory removed when Run returns. File
	// backend only.
	Dir string

	// Fsync is the file backend's durability discipline: "none",
	// "barrier" (the default; fsync on every filesystem sync barrier)
	// or "always" (fsync per write). File backend only.
	Fsync string
}

// Validate fills defaults and fails fast on anything the downstream
// layers would only reject after the device has been built and the
// entire load phase has run: an unknown engine, tunable keys the engine
// doesn't have, a read fraction outside [0,1], an unknown distribution,
// or a nonsense Zipf skew.
func (s Spec) Validate() (Spec, error) {
	def := DefaultDevice()
	if s.Device.CapacityBytes == 0 {
		s.Device.CapacityBytes = def.CapacityBytes
	}
	if s.Device.PageSize == 0 {
		s.Device.PageSize = def.PageSize
	}
	if s.Device.PagesPerBlock == 0 {
		s.Device.PagesPerBlock = def.PagesPerBlock
	}
	if s.Device.Profile == (flash.Profile{}) {
		s.Device.Profile = def.Profile
	}
	if s.Scale <= 0 {
		s.Scale = 128
	}
	if s.Engine == "" {
		s.Engine = LSM
	}
	drv, err := engine.Lookup(string(s.Engine))
	if err != nil {
		return s, fmt.Errorf("core: %w", err)
	}
	if len(s.Tunables) > 0 {
		// Dry-run the tunables against a throwaway config so a typo in
		// a spec file surfaces here, not after a full load phase.
		if err := drv.Configure(engine.Sizing{}).ApplyTunables(s.Tunables); err != nil {
			return s, fmt.Errorf("core: %w", err)
		}
	}
	if s.DatasetFraction <= 0 {
		s.DatasetFraction = 0.5
	}
	if s.DatasetFraction > 0.95 {
		return s, fmt.Errorf("core: dataset fraction %v too large", s.DatasetFraction)
	}
	if s.ValueBytes <= 0 {
		s.ValueBytes = 4000
	}
	if s.ReadFraction < 0 || s.ReadFraction > 1 {
		return s, fmt.Errorf("core: read fraction %v outside [0,1]", s.ReadFraction)
	}
	switch s.Dist {
	case workload.Uniform, workload.Zipfian, workload.SequentialDist:
	default:
		return s, fmt.Errorf("core: unknown distribution %v", s.Dist)
	}
	if s.ZipfTheta < 0 {
		return s, fmt.Errorf("core: negative ZipfTheta %v", s.ZipfTheta)
	}
	if s.Dist == workload.Zipfian && s.ZipfTheta >= 1 {
		return s, fmt.Errorf("core: ZipfTheta %v outside [0,1) (the Zipfian generator requires theta < 1)", s.ZipfTheta)
	}
	if s.PartitionFraction <= 0 || s.PartitionFraction > 1 {
		s.PartitionFraction = 1
	}
	if s.Duration <= 0 {
		s.Duration = 210 * time.Minute
	}
	if s.SampleEvery <= 0 {
		s.SampleEvery = 10 * time.Second
	}
	if s.QueueDepth < 1 {
		s.QueueDepth = 1
	}
	if s.Shards < 0 {
		return s, fmt.Errorf("core: shards must be >= 1 (got %d); omit the field for the single-shard default", s.Shards)
	}
	if s.Shards == 0 {
		s.Shards = 1
	}
	if s.Shards > 1024 {
		return s, fmt.Errorf("core: %d shards is beyond any simulated device's lane budget (max 1024)", s.Shards)
	}
	if s.Clients < 0 {
		return s, fmt.Errorf("core: clients must be >= 1 (got %d); omit the field for one client per shard", s.Clients)
	}
	if s.Clients == 0 {
		s.Clients = s.Shards
	}
	if s.Clients < s.Shards {
		return s, fmt.Errorf("core: %d clients cannot keep %d shards busy; use at least one client per shard (clients >= shards)", s.Clients, s.Shards)
	}
	if s.Skew < 0 || s.Skew > 1 {
		return s, fmt.Errorf("core: skew %v outside [0,1] (the fraction of operations sent to the hot keyspace)", s.Skew)
	}
	if s.Replicas < 0 {
		return s, fmt.Errorf("core: replicas must be >= 1 (got %d); omit the field for the unreplicated default", s.Replicas)
	}
	if s.Replicas == 0 {
		s.Replicas = 1
	}
	// Every replica is a complete engine stack on its own device, so the
	// lane budget bounds shards × replicas, not shards alone.
	if s.Shards*s.Replicas > 1024 {
		return s, fmt.Errorf("core: %d shards x %d replicas is %d engine stacks, beyond any simulated device's lane budget (max 1024)", s.Shards, s.Replicas, s.Shards*s.Replicas)
	}
	switch s.ReplMode {
	case "":
		if s.Replicas > 1 {
			s.ReplMode = "chain"
		}
	case "chain", "quorum":
	default:
		return s, fmt.Errorf("core: unknown repl_mode %q (have chain, quorum)", s.ReplMode)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	switch s.Backend {
	case "":
		s.Backend = "sim"
	case "sim", "file":
	default:
		return s, fmt.Errorf("core: unknown backend %q (have sim, file)", s.Backend)
	}
	if s.Backend == "sim" {
		if s.Dir != "" {
			return s, errors.New(`core: dir requires backend "file"`)
		}
		if s.Fsync != "" {
			return s, errors.New(`core: fsync requires backend "file"`)
		}
	} else {
		if _, err := filedev.ParseDiscipline(s.Fsync); err != nil {
			return s, fmt.Errorf("core: %w", err)
		}
		// Flash-level knobs have no file-backend counterpart; reject
		// rather than silently measure something else.
		if s.Initial == Preconditioned {
			return s, errors.New("core: preconditioning requires the simulated backend")
		}
		if s.PartitionFraction != 1 {
			return s, errors.New("core: partition_fraction requires the simulated backend")
		}
	}
	return s, nil
}

// Result carries everything the figures need.
type Result struct {
	Spec         Spec
	Series       Series
	Steady       SteadyStats
	SpaceAmp     float64
	DiskUtilPct  float64 // max footprint over full device capacity
	LBACDF       []float64
	FracLBAs     float64
	OutOfSpace   bool
	LoadDuration sim.Duration
	DatasetBytes int64
	NumKeys      uint64

	// Measured-phase TRIM traffic at the block layer: discard commands
	// issued and the logical pages they covered (engine file deletions
	// under a discard-mounted filesystem reach the device as TRIMs).
	DiscardOps     int64
	PagesDiscarded int64

	// Load-phase diagnostics (before instrumentation reset).
	LoadHostBytes  int64
	LoadFlashPages int64
	LoadWAD        float64

	// ScaledKOps re-normalizes throughput to paper scale (measured
	// KOps × Scale) for comparison against the paper's figures.
	ScaledKOps float64

	// Latency summarizes per-operation virtual latencies over the
	// measured phase, re-normalized to paper scale (measured latency /
	// Scale). Throughput plots hide tail behaviour; this doesn't.
	Latency LatencySummary
}

// MeanScaledKOps returns the mean throughput over the whole measured
// phase, re-normalized to paper scale.
func (r *Result) MeanScaledKOps() float64 {
	return r.Series.MeanKOps() * float64(r.Spec.Scale)
}

// Run executes one experiment: validate the spec, build one engine
// stack per shard and replica behind the sharded store pipeline
// (internal/stack, internal/store), load the dataset, drive the
// measured phase as Spec.Clients closed-loop clients, and collect the
// result. With the default 1 shard / 1 client the submission schedule
// collapses to the historical synchronous op loop and the result is
// bit-identical to it (the golden fixtures pin this).
func Run(spec Spec) (*Result, error) {
	spec, err := spec.Validate()
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(spec.Seed)

	// Device geometry, scaled. The erase stripe scales with capacity so
	// the block COUNT — which sets the garbage-collection dynamics — is
	// scale-invariant; shards then split capacity, dataset and engine
	// sizing evenly, so each shard is a proportionally smaller replica
	// of the single-shard stack, and every replica is a full copy of its
	// shard.
	scaledCapacity := spec.Device.CapacityBytes / spec.Scale
	datasetBytes := int64(float64(spec.Device.CapacityBytes)*spec.DatasetFraction) / spec.Scale
	numKeys := uint64(datasetBytes / int64(spec.ValueBytes))
	if numKeys == 0 {
		return nil, errors.New("core: dataset too small for value size")
	}
	layout := stack.Layout{
		Flash: flash.Config{
			LogicalBytes:  scaledCapacity / int64(spec.Shards),
			PageSize:      spec.Device.PageSize,
			PagesPerBlock: max(spec.Device.PagesPerBlock/int(spec.Scale), 64),
			Profile:       spec.Device.Profile.Scaled(spec.Scale),
		},
		Precondition: spec.Initial == Preconditioned,
		Engine:       string(spec.Engine),
		Sizing: engine.Sizing{
			DatasetBytes: datasetBytes / int64(spec.Shards),
			Scale:        spec.Scale,
			QueueDepth:   spec.QueueDepth,
		},
		Tunables: spec.Tunables,
	}
	layout.PartitionPages = int64(float64(layout.Flash.LogicalBytes/int64(spec.Device.PageSize)) * spec.PartitionFraction)

	// The file backend keeps one image per stack; without an explicit
	// dir they live in (and vanish with) a temp directory.
	var runDir string
	if spec.Backend == "file" {
		var cleanup func()
		if runDir, cleanup, err = stack.ImageDir(spec.Dir, "ptsbench-filedev-"); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		defer cleanup()
		layout.File.Measure = true
		if layout.File.Fsync, err = filedev.ParseDiscipline(spec.Fsync); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	cl, err := stack.BuildCluster(spec.Shards, spec.Replicas, spec.ReplMode, false, func(i, r int) stack.Layout {
		l := layout
		l.RNG = stackRNG(rng, spec.Seed, i, r)
		if runDir != "" {
			l.File.Path = filepath.Join(runDir, stack.ImageName(i, r, spec.Replicas))
		}
		return l
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer cl.Close()
	st := cl.Store

	res := &Result{Spec: spec, DatasetBytes: datasetBytes, NumKeys: numKeys}

	// Load phase: ingest all keys in sequential order (§3.2) — each on
	// its owning shard, shards in parallel — then quiesce.
	now, err := st.Load(spec.ValueBytes, numKeys)
	if err == nil {
		now, err = st.FlushAll(0)
	}
	res.LoadDuration = now
	if err != nil {
		if errors.Is(err, extfs.ErrNoSpace) {
			res.OutOfSpace = true
			return res, nil
		}
		return nil, fmt.Errorf("core: load: %w", err)
	}
	devs := st.Devs()
	var loadDev blockdev.Counters
	var loadSSD flash.Stats
	for _, d := range devs {
		loadDev = loadDev.Add(d.Counters())
		// Flash internals exist only on the simulated device; the file
		// backend reports zero flash pages and the neutral WAD of 1.
		if sd, ok := d.(interface{ SSD() *flash.Device }); ok {
			loadSSD = loadSSD.Add(sd.SSD().Stats())
		}
	}
	res.LoadHostBytes = loadDev.BytesWritten
	res.LoadFlashPages = loadSSD.FlashPagesWritten
	res.LoadWAD = loadSSD.WAD()

	// Measurement phase: plots exclude loading, so instrumentation is
	// reset here (iostat counters, SMART deltas, LBA histogram).
	for _, d := range devs {
		d.ResetInstrumentation()
	}
	collector := NewCollector(devs, st, now, spec.SampleEvery)
	gens, err := workload.NewClientGenerators(workload.Spec{
		NumKeys:      numKeys,
		ValueBytes:   spec.ValueBytes,
		ReadFraction: spec.ReadFraction,
		Dist:         spec.Dist,
		ZipfTheta:    spec.ZipfTheta,
		Skew:         spec.Skew,
	}, rng.Uint64(), spec.Clients)
	if err != nil {
		return nil, err
	}
	lat := NewLatencyHistogram()
	end, err := drive(st, &spec, gens, now, collector, lat)
	if err != nil {
		if !errors.Is(err, extfs.ErrNoSpace) {
			return nil, fmt.Errorf("core: workload: %w", err)
		}
		res.OutOfSpace = true
	}
	collector.Record(end)
	res.Latency = lat.Percentiles()

	res.Series = collector.Series()
	res.Steady = res.Series.TailStats(0.25)
	res.ScaledKOps = res.Steady.ThroughputKOps * float64(spec.Scale)
	res.SpaceAmp = SpaceAmplification(res.Steady.DiskUsedBytes, datasetBytes)
	res.DiskUtilPct = 100 * float64(res.Steady.DiskUsedBytes) / float64(scaledCapacity)
	res.LBACDF = blockdev.CombinedWriteCDF(devs, 100)
	res.FracLBAs = blockdev.CombinedFractionLBAsWritten(devs)
	var measDev blockdev.Counters
	for _, d := range devs {
		measDev = measDev.Add(d.Counters())
	}
	res.DiscardOps = measDev.DiscardOps
	res.PagesDiscarded = measDev.PagesDiscarded
	return res, nil
}

// drive runs the measured phase: every client closed-loop from start
// until start+spec.Duration, completions recorded into lat and samples
// into collector as they fall due. It returns the time the last client
// finished and the first completion error.
//
// Closed-loop epochs: every live client prepares its next submission
// (a read wave of up to QueueDepth operations, or one serial op), the
// store pumps all shards in parallel, and completions come back in
// global submission order. Reads accumulate into waves whose operations
// all start at the same virtual time; a write flushes the client's
// pending wave first and runs serially, keeping the engines' stall and
// backpressure semantics intact. Latencies are per-operation
// (submission to completion), re-normalized to paper scale.
func drive(st *store.Store, spec *Spec, gens []*workload.Generator, start sim.Duration, collector *Collector, lat *LatencyHistogram) (sim.Duration, error) {
	deadline := start + spec.Duration
	clients := make([]*runClient, len(gens))
	for i := range clients {
		keys := make([][]byte, spec.QueueDepth)
		for j := range keys {
			keys[j] = make([]byte, kv.KeySize)
		}
		clients[i] = &runClient{
			gen:   gens[i],
			now:   start,
			keys:  keys,
			batch: make([]uint64, 0, spec.QueueDepth),
		}
	}

	var runErr error
	active := len(clients)
	for active > 0 && runErr == nil {
		submitted := false
		for id, c := range clients {
			if c.done {
				continue
			}
			if c.step(st, spec, id, deadline) {
				submitted = true
			} else {
				active--
			}
		}
		if !submitted {
			break
		}
		comps := st.Pump()
		for i := range comps {
			comp := &comps[i]
			c := clients[comp.Client]
			if comp.Err != nil {
				if runErr == nil {
					runErr = comp.Err
				}
				// A failed wave leaves the client clock at the submit
				// time (the wave never "lands"); a failed serial op
				// consumed virtual time up to the failure.
				if comp.Wave {
					c.waveErr = true
				} else {
					c.now = comp.Done
				}
				continue
			}
			lat.Record((comp.Done - comp.Submit) / sim.Duration(spec.Scale))
			if comp.Wave {
				if comp.Done > c.waveEnd {
					c.waveEnd = comp.Done
				}
			} else {
				c.now = comp.Done
			}
		}
		for _, c := range clients {
			if !c.submitted {
				continue
			}
			c.submitted = false
			if c.wave {
				if !c.waveErr {
					c.now = c.waveEnd
				}
				c.wave, c.waveErr = false, false
			}
			if runErr == nil && c.dueCheck && collector.Due(c.now) {
				collector.Record(c.now)
			}
		}
	}
	var end sim.Duration
	for _, c := range clients {
		end = max(end, c.now)
	}
	return end, runErr
}

// stackRNG picks the random stream replica rep of shard shard builds
// on. Shard 0 consumes the experiment's primary stream in the
// historical order (precondition split, then the engine env); later
// shards and replicas draw derived independent streams, so neither
// count ever perturbs shard 0's randomness — or any single-shard,
// unreplicated result.
func stackRNG(primary *sim.RNG, seed uint64, shard, rep int) *sim.RNG {
	switch {
	case rep > 0:
		return sim.NewRNG(replicaSeed(seed, shard, rep))
	case shard > 0:
		return sim.NewRNG(shardSeed(seed, shard))
	}
	return primary
}

// shardSeed derives shard i's independent RNG seed from the experiment
// seed (shard 0 uses the primary stream directly and never calls this).
func shardSeed(seed uint64, shard int) uint64 {
	z := uint64(shard) + 0x6A09E667F3BCC909
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return seed ^ z ^ (z >> 31)
}

// replicaSeed derives replica r of shard i's independent RNG seed
// (replica 0 keeps the shard's stream and never calls this). A
// different additive constant than shardSeed keeps the two stream
// families disjoint.
func replicaSeed(seed uint64, shard, rep int) uint64 {
	z := uint64(shard)<<20 + uint64(rep) + 0xBB67AE8584CAA73B
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return seed ^ z ^ (z >> 31)
}

// runClient is one closed-loop client of the measured phase. Its state
// machine replicates the historical op loop exactly: reads accumulate
// into a wave until QueueDepth; a write (or the deadline) flushes the
// pending wave first, the write itself riding the next epoch.
type runClient struct {
	gen   *workload.Generator
	now   sim.Duration
	keys  [][]byte // per-wave-slot key buffers, reused every epoch
	batch []uint64 // pending read wave (key ids)

	held    workload.Op // write held while its preceding wave flushes
	hasHeld bool

	// Per-epoch submission state.
	submitted bool
	wave      bool
	waveEnd   sim.Duration
	waveErr   bool
	dueCheck  bool

	done bool
}

// step prepares the client's next submission. It returns false once the
// client has passed the deadline with nothing left to flush.
func (c *runClient) step(st *store.Store, spec *Spec, id int, deadline sim.Duration) bool {
	if c.hasHeld {
		c.hasHeld = false
		c.submitSingle(st, spec, id, c.held)
		return true
	}
	for {
		if c.now >= deadline {
			if len(c.batch) > 0 {
				// Final partial wave: no sample check (the run's closing
				// Record covers it), matching the historical loop.
				c.submitWave(st, id, false)
				return true
			}
			c.done = true
			return false
		}
		op := c.gen.Next()
		if op.Kind == workload.OpRead && spec.QueueDepth > 1 {
			c.batch = append(c.batch, op.KeyID)
			if len(c.batch) < spec.QueueDepth {
				continue
			}
			c.submitWave(st, id, true)
			return true
		}
		if len(c.batch) > 0 {
			c.submitWave(st, id, false)
			c.held = op
			c.hasHeld = true
			return true
		}
		c.submitSingle(st, spec, id, op)
		return true
	}
}

func (c *runClient) submitWave(st *store.Store, id int, due bool) {
	for i, keyID := range c.batch {
		kv.AppendKey(c.keys[i], keyID)
		st.Submit(store.Op{
			Kind:   store.Get,
			Client: id,
			Submit: c.now,
			KeyID:  keyID,
			Key:    c.keys[i],
			Wave:   true,
		})
	}
	c.batch = c.batch[:0]
	c.submitted, c.wave, c.waveEnd, c.waveErr = true, true, c.now, false
	c.dueCheck = due
}

func (c *runClient) submitSingle(st *store.Store, spec *Spec, id int, op workload.Op) {
	kv.AppendKey(c.keys[0], op.KeyID)
	sop := store.Op{
		Client: id,
		Submit: c.now,
		KeyID:  op.KeyID,
		Key:    c.keys[0],
	}
	if op.Kind == workload.OpRead {
		sop.Kind = store.Get
	} else {
		sop.Kind = store.Put
		sop.ValueLen = spec.ValueBytes
	}
	st.Submit(sop)
	c.submitted, c.wave = true, false
	c.dueCheck = true
}
