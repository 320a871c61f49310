package betree

import (
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/kvtest"
	"ptsbench/internal/sim"
)

// TestEngineConformance runs the shared engine-conformance suite (see
// internal/kvtest) over the Bε-tree: the same put/get/scan/recovery
// contract the LSM and B+Tree are held to. Small nodes make buffer
// flushes, cascades and splits all participate at suite scale.
func TestEngineConformance(t *testing.T) {
	kvtest.Run(t, func(t *testing.T, content bool) *kvtest.Stack {
		tr, dev, fs := testEnv(t, 32, content, func(c *Config) {
			smallNodes(c)
			c.JournalSync = true
		})
		return &kvtest.Stack{
			Engine: tr,
			Dev:    dev,
			Reopen: func(now sim.Duration) (kv.Engine, sim.Duration, error) {
				re, rnow, err := Recover(fs, tr.cfg, now)
				if err != nil {
					return nil, rnow, err
				}
				return re, rnow, nil
			},
		}
	})
}
