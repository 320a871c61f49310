package store_test

import (
	"testing"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/engine"
	_ "ptsbench/internal/engine/all"
	"ptsbench/internal/extfs"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/kvtest"
	"ptsbench/internal/sim"
	"ptsbench/internal/store"
)

// shardParts keeps the pieces of one shard's stack that outlive the
// engine: recovery needs the filesystem and sized config back.
type shardParts struct {
	dev *blockdev.Device
	fs  *extfs.FS
	cfg engine.Config
}

// openShardStack builds one shard's full simulated stack (flash device,
// block device, filesystem, engine) through the driver registry, the
// way core.Run builds per-shard stacks.
func openShardStack(t *testing.T, drv engine.Driver, content bool, tunables map[string]string, rngSeed uint64) (store.Stack, shardParts) {
	t.Helper()
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  32 << 20,
		PageSize:      4096,
		PagesPerBlock: 64,
		Profile:       flash.ProfileSSD1().Scaled(4096),
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := blockdev.New(ssd)
	if content {
		dev.EnableContentStore()
	}
	fs, err := extfs.Mount(dev, extfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := drv.Configure(engine.Sizing{DatasetBytes: 16 << 20})
	if err := cfg.ApplyTunables(tunables); err != nil {
		t.Fatal(err)
	}
	eng, err := cfg.Open(engine.Env{FS: fs, RNG: sim.NewRNG(rngSeed), Content: content})
	if err != nil {
		t.Fatal(err)
	}
	return store.Stack{Engine: eng, Dev: dev}, shardParts{dev: dev, fs: fs, cfg: cfg}
}

// shardedFactory adapts an N-shard store to the engine-conformance
// suite through the Sync facade, holding the sharded front end to the
// exact behavioural contract of a single engine — scans merge in key
// order across shards, recovery reopens every shard, replay is
// deterministic.
func shardedFactory(engName string, shards int, tunables map[string]string) kvtest.Factory {
	return func(t *testing.T, content bool) *kvtest.Stack {
		drv, err := engine.Lookup(engName)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]shardParts, shards)
		st, err := store.New(shards, func(i int) (store.Stack, error) {
			stack, p := openShardStack(t, drv, content, tunables, uint64(100+i))
			parts[i] = p
			return stack, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		return &kvtest.Stack{
			Engine: &store.Sync{S: st},
			Dev:    parts[0].dev,
			Reopen: func(now sim.Duration) (kv.Engine, sim.Duration, error) {
				st.Close()
				engs := make([]engine.Engine, shards)
				starts := make([]sim.Duration, shards)
				var end sim.Duration
				for i := range parts {
					re, rnow, err := parts[i].cfg.Recover(engine.Env{
						FS:      parts[i].fs,
						RNG:     sim.NewRNG(uint64(200 + i)),
						Content: content,
					}, now)
					if err != nil {
						return nil, rnow, err
					}
					engs[i], starts[i] = re, rnow
					if rnow > end {
						end = rnow
					}
				}
				rst, err := store.New(shards, func(i int) (store.Stack, error) {
					return store.Stack{Engine: engs[i], Dev: parts[i].dev, Start: starts[i]}, nil
				})
				if err != nil {
					return nil, 0, err
				}
				t.Cleanup(rst.Close)
				return &store.Sync{S: rst}, end, nil
			},
		}
	}
}

// TestShardedConformance runs the shared engine-conformance suite over
// the sharded serving layer: a 1-shard store (the bit-identical legacy
// shape) and 4-shard stores over two engine families.
func TestShardedConformance(t *testing.T) {
	cases := []struct {
		name     string
		eng      string
		shards   int
		tunables map[string]string
	}{
		// journal_sync: the suite asserts per-operation durability
		// across a crash; small leaves so splits participate.
		{"btree-1shard", "btree", 1, map[string]string{"journal_sync": "true", "leaf_page_bytes": "2048"}},
		{"btree-4shards", "btree", 4, map[string]string{"journal_sync": "true", "leaf_page_bytes": "2048"}},
		// Small memtables so flushed tables participate; fully-synced
		// WAL for the same durability reason.
		{"lsm-4shards", "lsm", 4, map[string]string{"memtable_bytes": "16384", "wal_flush_bytes": "0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kvtest.Run(t, shardedFactory(tc.eng, tc.shards, tc.tunables))
		})
	}
}
