// Package ptsbench is a simulation laboratory for benchmarking
// persistent tree structures (PTSes) on flash SSDs. It reproduces the
// methodology and every experiment of Didona, Ioannou, Stoica and
// Kourtis, "Toward a Better Understanding and Evaluation of Tree
// Structures on Flash SSDs" (VLDB 2020): seven benchmarking pitfalls
// demonstrated with an LSM-tree (RocksDB-like), a B+Tree
// (WiredTiger-like) and a Bε-tree (buffered copy-on-write B-tree)
// engine running on a simulated flash device with a page-mapped FTL,
// garbage collection and over-provisioning.
//
// The package is a facade over the internal implementation:
//
//   - Experiments: Spec/Run execute a full workload (load + measured
//     update phase) and return throughput, WA-A, WA-D and space
//     amplification series — the paper's §3.3 metrics. Spec is pure
//     data (the engine is a registry name, its knobs are string-valued
//     tunables), so experiments serialize to JSON: ParseExperiment
//     loads a declarative spec file and expands its sweep lists into a
//     grid of cells (`ptsbench exp`).
//   - Engines: the tree structures are pluggable drivers behind a
//     registry (internal/engine). Engines lists them with their
//     tunables; OpenEngine/RecoverEngine resolve one by name.
//   - Figures: Figure/Figures regenerate the paper's evaluation figures
//     and tables.
//   - Stack: NewStack builds the simulated device + filesystem so the
//     engines can be driven directly (see the examples directory).
//
// All simulation is deterministic: the same Spec and seed produce
// bit-identical results.
package ptsbench

import (
	"io"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/core"
	"ptsbench/internal/engine"
	"ptsbench/internal/extfs"
	"ptsbench/internal/figures"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
)

// Experiment types (see internal/core for full documentation).
type (
	// Spec describes one experiment run. It is fully declarative and
	// round-trips through JSON.
	Spec = core.Spec
	// Result carries the series and steady-state figures of a run.
	Result = core.Result
	// DeviceSpec describes the simulated SSD at paper scale.
	DeviceSpec = core.DeviceSpec
	// EngineKind selects the tree structure under test; it is the
	// engine's driver-registry name.
	EngineKind = core.EngineKind
	// InitialState is the drive state before the experiment.
	InitialState = core.InitialState
	// Experiment is a declarative experiment grid: a Spec template
	// plus sweep lists over engines, read fractions, queue depths and
	// scales. ParseExperiment loads one from JSON.
	Experiment = core.Experiment
)

// Engine and initial-state constants.
const (
	LSM            = core.LSM
	BTree          = core.BTree
	Betree         = core.Betree
	Trimmed        = core.Trimmed
	Preconditioned = core.Preconditioned
)

// ParseEngine maps an engine name ("lsm", "btree", "betree", ...) to
// its kind, validating it against the driver registry; the CLI's
// -engine flag uses it.
func ParseEngine(name string) (EngineKind, error) { return core.ParseEngine(name) }

// ParseExperiment parses a declarative experiment spec file (see the
// README's "Running your own experiments" and examples/specs). The
// returned Experiment's Specs method expands the sweep cross product
// into runnable cells for Run or RunGrid.
func ParseExperiment(data []byte) (*Experiment, error) { return core.ParseExperiment(data) }

// ExpReport renders an experiment grid's results as a figure-style
// report (summary table plus one throughput curve per cell) that can
// be printed with Render and exported with WriteCSV.
func ExpReport(name string, specs []Spec, results []*Result) *FigureReport {
	return figures.ExpReport(name, specs, results)
}

// WriteResultsJSON writes experiment results as one JSON array; the
// embedded specs stay declarative, so a result file documents exactly
// how to reproduce itself.
func WriteResultsJSON(w io.Writer, results []*Result) error {
	return core.WriteResultsJSON(w, results)
}

// ReadResultsJSON parses a WriteResultsJSON file.
func ReadResultsJSON(r io.Reader) ([]*Result, error) { return core.ReadResultsJSON(r) }

// Run executes one experiment (load phase, measured update phase,
// instrumentation) and returns its result.
func Run(spec Spec) (*Result, error) { return core.Run(spec) }

// RunGrid executes independent experiment cells across goroutines
// (bounded by workers; < 1 means GOMAXPROCS) and returns results in
// cell order. Every cell seeds its own RNG from its Spec, so the
// results are bit-identical to running each Spec through Run
// sequentially — concurrency never costs determinism.
func RunGrid(specs []Spec, workers int) ([]*Result, error) {
	return core.RunGrid(specs, workers)
}

// DefaultDevice returns the paper's primary testbed device: a 400 GB
// enterprise flash SSD (SSD1).
func DefaultDevice() DeviceSpec { return core.DefaultDevice() }

// Device profiles for the paper's three SSD types (§4.7).
var (
	// ProfileSSD1 is the enterprise flash drive used in most figures.
	ProfileSSD1 = flash.ProfileSSD1
	// ProfileSSD2 is the consumer QLC drive with a large write cache.
	ProfileSSD2 = flash.ProfileSSD2
	// ProfileSSD3 is the Optane-like drive without garbage collection.
	ProfileSSD3 = flash.ProfileSSD3
)

// Figure types.
type (
	// FigureReport is the output of one figure reproduction.
	FigureReport = figures.Report
	// FigureOptions tune figure runs (scale, quick mode, seed).
	FigureOptions = figures.Options
)

// Figure regenerates one of the paper's figures ("fig2" .. "fig11").
func Figure(id string, opts FigureOptions) (*FigureReport, error) { return figures.Run(id, opts) }

// Figures lists the available figure IDs in paper order.
func Figures() []string { return figures.IDs() }

// Stack is a ready-to-use simulated storage stack: SSD, block device
// (with iostat counters and LBA histogram) and filesystem. Engines opened
// on the stack share its virtual-time device.
type Stack struct {
	SSD      *flash.Device
	BlockDev *blockdev.Device
	FS       *extfs.FS
}

// StackOptions configure NewStack.
type StackOptions struct {
	// CapacityBytes is the device capacity (default 1 GiB).
	CapacityBytes int64
	// Profile is the device model (default ProfileSSD1 scaled to a
	// laptop-friendly size).
	Profile *flash.Profile
	// ContentStore retains written bytes so reads return real data;
	// enable it for correctness-oriented use, leave off for pure
	// performance accounting.
	ContentStore bool
	// DiscardOnDelete mounts the filesystem with discard (default is
	// nodiscard, like the paper).
	DiscardOnDelete bool
}

// NewStack builds a simulated device and filesystem.
func NewStack(opts StackOptions) (*Stack, error) {
	capacity := opts.CapacityBytes
	if capacity <= 0 {
		capacity = 1 << 30
	}
	profile := flash.ProfileSSD1().Scaled(64)
	if opts.Profile != nil {
		profile = *opts.Profile
	}
	st, err := stack.Build(stack.Layout{
		Flash:   flash.Config{LogicalBytes: capacity, Profile: profile},
		Mount:   extfs.Options{Discard: opts.DiscardOnDelete},
		Content: opts.ContentStore,
	})
	if err != nil {
		return nil, err
	}
	return &Stack{SSD: st.Sim.SSD(), BlockDev: st.Sim, FS: st.FS}, nil
}

// Generic engine access. The registry makes every engine reachable by
// name with one code path.
type (
	// Engine is the generic engine handle: the kv operations plus the
	// simulation lifecycle (Quiesce, Close). OpenEngine and
	// RecoverEngine return it.
	Engine = engine.Engine
	// EngineTunable documents one declarative engine knob.
	EngineTunable = engine.Tunable
	// VirtualTime is a duration on the simulation clock.
	VirtualTime = sim.Duration
)

// EngineInfo describes one registered engine driver.
type EngineInfo struct {
	// Name is the registry name ("lsm", "btree", "betree", ...).
	Name string
	// Tunables lists the declarative knobs the engine accepts in
	// Spec.Tunables, spec files and OpenEngine.
	Tunables []EngineTunable
}

// Engines lists the registered engine drivers with their tunables, in
// name order. `ptsbench engines` prints this.
func Engines() []EngineInfo {
	var infos []EngineInfo
	for _, name := range engine.Names() {
		drv, err := engine.Lookup(name)
		if err != nil {
			continue // racing deregistration cannot happen; defensive
		}
		infos = append(infos, EngineInfo{
			Name:     name,
			Tunables: drv.Configure(engine.Sizing{}).Tunables(),
		})
	}
	return infos
}

// engineConfig resolves an engine by name and sizes + tunes its config.
func engineConfig(name string, datasetBytes int64, tunables map[string]string) (engine.Config, error) {
	drv, err := engine.Lookup(name)
	if err != nil {
		return nil, err
	}
	cfg := drv.Configure(engine.Sizing{DatasetBytes: datasetBytes})
	if err := cfg.ApplyTunables(tunables); err != nil {
		return nil, err
	}
	return cfg, nil
}

// OpenEngine opens any registered engine by name on the stack's
// filesystem, with defaults sized for datasetBytes and declarative
// tunable overrides (nil for none). seed drives engine-internal
// randomness where the engine uses any.
func OpenEngine(s *Stack, name string, datasetBytes int64, tunables map[string]string, seed uint64) (Engine, error) {
	cfg, err := engineConfig(name, datasetBytes, tunables)
	if err != nil {
		return nil, err
	}
	return cfg.Open(engine.Env{
		FS:      s.FS,
		RNG:     sim.NewRNG(seed),
		Content: s.BlockDev.ContentEnabled(),
	})
}

// RecoverEngine reopens any registered engine by name from the stack's
// on-device state (checkpoint metadata, manifests, journal/WAL replay).
// The stack must have its content store enabled. It returns the
// recovered engine and the virtual time consumed by recovery I/O.
func RecoverEngine(s *Stack, name string, datasetBytes int64, tunables map[string]string, seed uint64, now VirtualTime) (Engine, VirtualTime, error) {
	cfg, err := engineConfig(name, datasetBytes, tunables)
	if err != nil {
		return nil, 0, err
	}
	return cfg.Recover(engine.Env{
		FS:      s.FS,
		RNG:     sim.NewRNG(seed),
		Content: s.BlockDev.ContentEnabled(),
	}, now)
}

// EncodeKey produces the canonical 16-byte key for a numeric id (the
// paper's key format). It delegates to internal/kv — the single
// definition the engines and the workload generator share — so the
// facade can never drift from the keys the harness actually writes.
func EncodeKey(id uint64) []byte { return kv.EncodeKey(id) }
