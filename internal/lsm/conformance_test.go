package lsm

import (
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/kvtest"
	"ptsbench/internal/sim"
)

// TestEngineConformance runs the shared engine-conformance suite (see
// internal/kvtest) over the LSM: the same put/get/scan/recovery
// contract the B+Tree and Bε-tree are held to.
func TestEngineConformance(t *testing.T) {
	kvtest.Run(t, func(t *testing.T, content bool) *kvtest.Stack {
		db, dev, fs := testEnv(t, 32, content, func(c *Config) {
			c.MemtableBytes = 16 << 10 // rotate fast: flushed tables participate
			// The suite asserts per-operation durability across a crash;
			// the default group sync (WALFlushBytes > 0) legitimately
			// loses the unsynced tail, so pin the fully-synced mode here.
			c.WALFlushBytes = 0
		})
		return &kvtest.Stack{
			Engine: db,
			Dev:    dev,
			Reopen: func(now sim.Duration) (kv.Engine, sim.Duration, error) {
				re, rnow, err := Recover(fs, db.cfg, sim.NewRNG(42), now)
				if err != nil {
					return nil, rnow, err
				}
				return re, rnow, nil
			},
		}
	})
}
