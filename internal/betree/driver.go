package betree

import (
	"ptsbench/internal/cowtree"
	"ptsbench/internal/engine"
	"ptsbench/internal/sim"
)

func init() { engine.Register(Driver{}) }

// Driver is the self-registering engine driver for the buffered
// copy-on-write Bε-tree. Registry name: "betree".
type Driver struct{}

// Name implements engine.Driver.
func (Driver) Name() string { return "betree" }

// Configure implements engine.Driver: Bε-tree defaults sized for the
// dataset with CPU costs dilated by the simulation scale — the
// arithmetic the experiment runner applied before the registry existed,
// preserved bit-identically. The Bε-tree answers a point read from at
// most one leaf, so there is no queue-depth-dependent knob here; host-
// level read batching is handled by the runner.
func (Driver) Configure(s engine.Sizing) engine.Config {
	cfg := NewConfig(s.DatasetBytes)
	cfg.ScaleCPU(s)
	return &cfg
}

// knobs binds the declarative tunable names to the receiver's fields.
func (c *Config) knobs() *engine.Knobs {
	k := engine.NewKnobs("betree")
	k.Float("epsilon", "pivot/buffer split of interior nodes in (0,1]; 1 degenerates to a B+Tree", &c.Epsilon)
	k.Int("node_bytes", "total serialized budget of an interior node (bytes)", &c.NodeBytes)
	k.Int("leaf_page_bytes", "maximum serialized leaf size (bytes)", &c.LeafPageBytes)
	c.Tuning.Bind(k)
	return k
}

// Tunables implements engine.Config.
func (c *Config) Tunables() []engine.Tunable { return c.knobs().Docs() }

// ApplyTunables implements engine.Config.
func (c *Config) ApplyTunables(tunables map[string]string) error {
	return c.knobs().Apply(tunables)
}

// Open implements engine.Config. The Bε-tree is deterministic and does
// not consume env.RNG.
func (c *Config) Open(env engine.Env) (engine.Engine, error) {
	return Open(env.FS, cowtree.WithEnv(c, env))
}

// Recover implements engine.Config.
func (c *Config) Recover(env engine.Env, now sim.Duration) (engine.Engine, sim.Duration, error) {
	return Recover(env.FS, cowtree.WithEnv(c, env), now)
}
