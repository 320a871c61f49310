package btree

import (
	"ptsbench/internal/cowtree"
	"ptsbench/internal/engine"
	"ptsbench/internal/sim"
)

func init() { engine.Register(Driver{}) }

// Driver is the self-registering engine driver for the WiredTiger-style
// B+Tree. Registry name: "btree".
type Driver struct{}

// Name implements engine.Driver.
func (Driver) Name() string { return "btree" }

// Configure implements engine.Driver: WiredTiger-flavoured defaults
// sized for the dataset, CPU costs dilated by the simulation scale and
// scan prefetch following the host queue depth — the arithmetic the
// experiment runner applied before the registry existed, preserved
// bit-identically.
func (Driver) Configure(s engine.Sizing) engine.Config {
	cfg := NewConfig(s.DatasetBytes)
	cfg.ScaleCPU(s)
	if s.QueueDepth > 1 {
		cfg.PrefetchDepth = s.QueueDepth
	}
	return &cfg
}

// knobs binds the declarative tunable names to the receiver's fields.
func (c *Config) knobs() *engine.Knobs {
	k := engine.NewKnobs("btree")
	k.Int("leaf_page_bytes", "maximum serialized leaf size (bytes)", &c.LeafPageBytes)
	k.Int("internal_page_bytes", "maximum serialized internal page size (bytes)", &c.InternalPageBytes)
	c.Tuning.Bind(k)
	k.Int("prefetch_depth", "leaf reads a range scan keeps in flight", &c.PrefetchDepth)
	return k
}

// Tunables implements engine.Config.
func (c *Config) Tunables() []engine.Tunable { return c.knobs().Docs() }

// ApplyTunables implements engine.Config.
func (c *Config) ApplyTunables(tunables map[string]string) error {
	return c.knobs().Apply(tunables)
}

// Open implements engine.Config. The B+Tree is deterministic and does
// not consume env.RNG.
func (c *Config) Open(env engine.Env) (engine.Engine, error) {
	return Open(env.FS, cowtree.WithEnv(c, env))
}

// Recover implements engine.Config.
func (c *Config) Recover(env engine.Env, now sim.Duration) (engine.Engine, sim.Duration, error) {
	return Recover(env.FS, cowtree.WithEnv(c, env), now)
}
