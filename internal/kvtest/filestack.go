package kvtest

import (
	"path/filepath"
	"testing"

	"ptsbench/internal/engine"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
)

// NewFileStack opens a fresh engine of the given driver over a real
// file-backed device (internal/filedev) in a per-test temp directory,
// with deterministic fixed I/O costs. Its Reopen path is a REAL
// close-and-reopen of the backing file — durability must have come
// from the engine's fsync discipline, not from process memory — before
// the driver's recovery runs over the same mounted filesystem.
//
// The helper takes engine.Driver rather than a concrete engine so this
// package never imports engine implementations (their test packages
// import the suite); the per-engine loop lives in
// internal/filedev's conformance test.
func NewFileStack(t *testing.T, drv engine.Driver, tunables map[string]string, content bool) *Stack {
	t.Helper()
	l := stack.Small(drv.Name(), tunables)
	l.File.Path = filepath.Join(t.TempDir(), "dev.img")
	return openStack(t, l, content)
}

// openStack builds l in the given content mode on the fixtures' build stream
// and hands it to the suite. Reopen power cycles the device the way its
// authority restarts (stack.PowerCycle), then recovers on a second
// stream.
func openStack(t *testing.T, l stack.Layout, content bool) *Stack {
	t.Helper()
	l.Content = content
	l.RNG = sim.NewRNG(1)
	built, err := stack.Build(l)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { built.Close() })
	st := &Stack{Engine: built.Engine, Dev: built.Host}
	if content {
		st.Reopen = func(now sim.Duration) (kv.Engine, sim.Duration, error) {
			if err := built.PowerCycle(); err != nil {
				return nil, 0, err
			}
			return built.Recover(sim.NewRNG(2), now)
		}
	}
	return st
}
