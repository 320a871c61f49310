// Package engine defines the pluggable storage-engine driver interface
// and its registry. The experiment runner (internal/core), the figures,
// the CLI and the public facade all resolve engines by name through the
// registry instead of switching over a hard-coded enum, so adding a
// tree structure to the laboratory is one new package plus one
// self-registration — the pattern host storage stacks use to keep their
// device and engine layers pluggable.
//
// A Driver turns a Sizing (dataset size, simulation scale, host queue
// depth) into a Config: the engine's own tuning structure, sized with
// its defaults and with CPU costs and internal parallelism scaled the
// way the experiment runner requires. A Config then accepts declarative,
// serializable knob overrides (ApplyTunables) and opens or recovers the
// engine on a filesystem. Because every knob is a named string-valued
// tunable rather than a Go closure, a full experiment — engine included
// — can be described as data, saved to JSON, diffed and replayed.
package engine

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// Engine is the runtime interface the harness drives: the kv.Engine
// operations plus the simulation lifecycle hooks every tree structure
// implements.
type Engine interface {
	kv.Engine
	// Quiesce pumps background work (flushes, compactions, checkpoints)
	// to completion and returns the advanced virtual time.
	Quiesce(now sim.Duration) sim.Duration
	// Close persists all state and shuts the engine down.
	Close(now sim.Duration) (sim.Duration, error)
}

// GroupCommitter is the optional surface of engines whose journal can
// defer per-write durability to a single batch-end sync (group commit).
// The store brackets a shard's intake batches carrying more than
// one write with Begin/End, so concurrent clients share one journal
// sync the way production write-ahead logs batch fsyncs. Engines whose
// write path already batches durability internally (the LSM WAL flushes
// by accumulated bytes) simply don't implement it.
type GroupCommitter interface {
	// BeginGroupCommit suppresses per-write journal syncs until
	// EndGroupCommit.
	BeginGroupCommit()
	// EndGroupCommit closes the group and syncs the journal tail once,
	// returning the sync completion time.
	EndGroupCommit(now sim.Duration) (sim.Duration, error)
}

// Env is the environment an engine opens on.
type Env struct {
	// FS is the filesystem the engine stores its files in.
	FS *extfs.FS
	// RNG seeds engine-internal randomness (e.g. skiplist tower
	// heights). Drivers that need it split a child stream from it;
	// drivers of deterministic engines ignore it entirely, so the
	// parent stream is only advanced by engines that consumed
	// randomness before the registry existed — which keeps historical
	// runs bit-identical.
	RNG *sim.RNG
	// Content selects content mode: values are materialized and
	// written through to the device (required for recovery tests).
	Content bool
}

// Sizing parameterizes a driver's default configuration.
type Sizing struct {
	// DatasetBytes sizes caches, memtables and node budgets, the same
	// way the engines' NewConfig constructors are documented.
	DatasetBytes int64
	// Scale dilates per-operation CPU costs and divides throttling
	// rates so that a scaled experiment traces the full-size one's
	// virtual-time curves. Values below 2 leave the config at paper
	// scale.
	Scale int64
	// QueueDepth sets engine-internal read parallelism (SSTable probe
	// waves, compaction read batching, scan prefetch). Values below 2
	// keep the strictly serial defaults.
	QueueDepth int
}

// CPUScale returns the factor Scale applies to CPU cost durations.
func (s Sizing) CPUScale() time.Duration {
	if s.Scale > 1 {
		return time.Duration(s.Scale)
	}
	return 1
}

// Tunable documents one declarative knob of an engine config.
type Tunable struct {
	// Name is the knob's key within the engine's namespace (e.g.
	// "epsilon" under engine "betree").
	Name string
	// Kind is the value syntax: "int", "float", "bool" or "duration".
	Kind string
	// Doc is a one-line description.
	Doc string
}

// Config is a sized engine configuration: a Driver's defaults after
// Sizing, ready to accept declarative overrides and open engines.
// Implementations are pointers to the engine's own config struct, so
// typed callers (the facade's thin wrappers) and declarative callers
// share one code path.
type Config interface {
	// Tunables lists the knobs ApplyTunables accepts.
	Tunables() []Tunable
	// ApplyTunables validates and applies engine-namespaced knob
	// overrides. Unknown keys and malformed values are errors naming
	// the engine; a nil or empty map is a no-op.
	ApplyTunables(tunables map[string]string) error
	// Open creates a fresh engine on env. The filesystem must be
	// empty.
	Open(env Env) (Engine, error)
	// Recover reopens an engine from on-device state (checkpoint
	// metadata, manifests, journal/WAL replay), returning the engine
	// and the virtual time consumed by recovery I/O. env must have
	// content mode enabled.
	Recover(env Env, now sim.Duration) (Engine, sim.Duration, error)
}

// Driver describes one pluggable engine.
type Driver interface {
	// Name is the registry key and the spelling used by experiment
	// specs and the CLI ("lsm", "btree", "betree", ...).
	Name() string
	// Configure returns a fresh Config sized for s.
	Configure(s Sizing) Config
}

var (
	regMu    sync.RWMutex
	registry = map[string]Driver{}
)

// Register adds a driver to the registry. Engine packages call it from
// init, so importing an engine package (directly, or via the blank
// imports of internal/engine/all) is what makes it available. Register
// panics on an empty name or a duplicate registration — both are
// programmer errors caught by any test that imports the package.
func Register(d Driver) {
	name := d.Name()
	if name == "" {
		panic("engine: Register with empty driver name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("engine: driver %q registered twice", name))
	}
	registry[name] = d
}

// Lookup resolves a driver by name.
func Lookup(name string) (Driver, error) {
	regMu.RLock()
	d, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (have %s)",
			name, strings.Join(Names(), ", "))
	}
	return d, nil
}

// Names lists the registered engine names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Knobs binds declarative knob names to the fields of a concrete engine
// config, giving every driver the same parse/validate/apply behaviour
// and the same error spelling (prefixed with the engine name, as the
// spec-file diagnostics require). Drivers build one per config value,
// with the destinations pointing into the receiver.
type Knobs struct {
	engine string
	docs   []Tunable
	set    map[string]func(string) error
}

// NewKnobs starts an empty knob set for the named engine.
func NewKnobs(engineName string) *Knobs {
	return &Knobs{engine: engineName, set: map[string]func(string) error{}}
}

func (k *Knobs) add(name, kind, doc string, fn func(string) error) {
	if _, dup := k.set[name]; dup {
		panic(fmt.Sprintf("engine: %s: duplicate tunable %q", k.engine, name))
	}
	k.docs = append(k.docs, Tunable{Name: name, Kind: kind, Doc: doc})
	k.set[name] = fn
}

// Int binds an integer knob.
func (k *Knobs) Int(name, doc string, dst *int) {
	k.add(name, "int", doc, func(v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		*dst = n
		return nil
	})
}

// Int64 binds a 64-bit integer knob (byte sizes, rates).
func (k *Knobs) Int64(name, doc string, dst *int64) {
	k.add(name, "int", doc, func(v string) error {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return err
		}
		*dst = n
		return nil
	})
}

// Float binds a float64 knob.
func (k *Knobs) Float(name, doc string, dst *float64) {
	k.add(name, "float", doc, func(v string) error {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return err
		}
		*dst = f
		return nil
	})
}

// Bool binds a boolean knob.
func (k *Knobs) Bool(name, doc string, dst *bool) {
	k.add(name, "bool", doc, func(v string) error {
		b, err := strconv.ParseBool(v)
		if err != nil {
			return err
		}
		*dst = b
		return nil
	})
}

// Duration binds a time.Duration knob ("300us", "1m30s").
func (k *Knobs) Duration(name, doc string, dst *time.Duration) {
	k.add(name, "duration", doc, func(v string) error {
		d, err := time.ParseDuration(v)
		if err != nil {
			return err
		}
		*dst = d
		return nil
	})
}

// Docs lists the bound tunables in registration order.
func (k *Knobs) Docs() []Tunable {
	return append([]Tunable(nil), k.docs...)
}

// Apply sets the bound destinations from m. Keys are applied in sorted
// order so repeated applications are deterministic; the first failure
// aborts with an error naming the engine and the offending knob.
func (k *Knobs) Apply(m map[string]string) error {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for key := range m {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		fn, ok := k.set[key]
		if !ok {
			return fmt.Errorf("%s: unknown tunable %q (have %s)",
				k.engine, key, strings.Join(k.names(), ", "))
		}
		if err := fn(m[key]); err != nil {
			return fmt.Errorf("%s: tunable %s=%q: %v", k.engine, key, m[key], err)
		}
	}
	return nil
}

func (k *Knobs) names() []string {
	names := make([]string, 0, len(k.set))
	for name := range k.set {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
