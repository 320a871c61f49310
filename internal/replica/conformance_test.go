package replica_test

import (
	"bytes"
	"fmt"
	"testing"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/engine"
	_ "ptsbench/internal/engine/all"
	"ptsbench/internal/extfs"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/kvtest"
	"ptsbench/internal/replica"
	"ptsbench/internal/sim"
	"ptsbench/internal/store"
)

// durability returns the engine tunables that make every acknowledged
// write durable across a restart, mirroring the crash harness: a fully
// synced WAL for the LSM and per-op journal syncs for the B-tree
// family (small leaves/memtables so structure churn participates).
func durability(eng string) map[string]string {
	if eng == "lsm" {
		return map[string]string{"memtable_bytes": "16384", "wal_flush_bytes": "0"}
	}
	return map[string]string{"journal_sync": "true", "leaf_page_bytes": "2048"}
}

// replicaParts keeps one replica's stack pieces that outlive the
// engine: recovery needs the filesystem and sized config back.
type replicaParts struct {
	dev *blockdev.Device
	fs  *extfs.FS
	cfg engine.Config
}

// openReplicaStack builds one replica's full simulated stack the way
// core.Run builds per-shard stacks: private flash device, block device,
// filesystem and engine.
func openReplicaStack(t *testing.T, drv engine.Driver, content bool, tunables map[string]string, rngSeed uint64) (engine.Engine, replicaParts) {
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
	return eng, replicaParts{dev: dev, fs: fs, cfg: cfg}
}

// replicatedFactory adapts a sharded store whose shards are replica
// groups to the engine-conformance suite: the full behavioural contract
// of a single engine must survive sharding AND replication, including
// recovery that restarts every replica of every shard.
func replicatedFactory(engName string, shards, replicas int, mode replica.Mode, tunables map[string]string) kvtest.Factory {
	return func(t *testing.T, content bool) *kvtest.Stack {
		drv, err := engine.Lookup(engName)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([][]replicaParts, shards)
		st, err := store.New(shards, func(i int) (store.Stack, error) {
			parts[i] = make([]replicaParts, replicas)
			members := make([]replica.Member, replicas)
			devs := make([]blockdev.Host, replicas)
			for r := 0; r < replicas; r++ {
				eng, p := openReplicaStack(t, drv, content, tunables, uint64(100+i*8+r))
				parts[i][r] = p
				members[r] = replica.Member{Engine: eng}
				devs[r] = p.dev
			}
			g, err := replica.New(mode, members)
			if err != nil {
				return store.Stack{}, err
			}
			return store.Stack{Engine: g, Dev: devs[0], Devs: devs}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(st.Close)
		return &kvtest.Stack{
			Engine: &store.Sync{S: st},
			Dev:    parts[0][0].dev,
			Reopen: func(now sim.Duration) (kv.Engine, sim.Duration, error) {
				st.Close()
				groups := make([]*replica.Group, shards)
				starts := make([]sim.Duration, shards)
				var end sim.Duration
				for i := range parts {
					members := make([]replica.Member, replicas)
					for r := range parts[i] {
						re, rnow, err := parts[i][r].cfg.Recover(engine.Env{
							FS:      parts[i][r].fs,
							RNG:     sim.NewRNG(uint64(200 + i*8 + r)),
							Content: content,
						}, now)
						if err != nil {
							return nil, rnow, err
						}
						members[r] = replica.Member{Engine: re, Start: rnow}
						if rnow > starts[i] {
							starts[i] = rnow
						}
					}
					g, err := replica.New(mode, members)
					if err != nil {
						return nil, 0, err
					}
					groups[i] = g
					if starts[i] > end {
						end = starts[i]
					}
				}
				rst, err := store.New(shards, func(i int) (store.Stack, error) {
					devs := make([]blockdev.Host, replicas)
					for r := range parts[i] {
						devs[r] = parts[i][r].dev
					}
					return store.Stack{Engine: groups[i], Dev: devs[0], Devs: devs, Start: starts[i]}, nil
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

// TestReplicatedConformance holds the replicated store facade to the
// exact behavioural contract of a single engine at R=2 and R=3 over
// all three engines, covering both replication modes.
func TestReplicatedConformance(t *testing.T) {
	cases := []struct {
		eng      string
		replicas int
		mode     replica.Mode
	}{
		{"lsm", 2, replica.Chain},
		{"lsm", 3, replica.Quorum},
		{"btree", 2, replica.Quorum},
		{"btree", 3, replica.Chain},
		{"betree", 2, replica.Chain},
		{"betree", 3, replica.Quorum},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("%s-r%d-%s", tc.eng, tc.replicas, tc.mode)
		t.Run(name, func(t *testing.T) {
			kvtest.Run(t, replicatedFactory(tc.eng, 2, tc.replicas, tc.mode, durability(tc.eng)))
		})
	}
}

// TestSingleReplicaRestart is the recovery-by-restart path of one
// replica while the rest of the group keeps serving: kill one replica
// after a clean shutdown, keep writing degraded, recover it from its
// own on-device state, revive and reconcile — every replica must end
// byte-comparable and the group must serve the exact final state.
func TestSingleReplicaRestart(t *testing.T) {
	const replicas = 3
	for _, eng := range []string{"lsm", "btree", "betree"} {
		for _, mode := range []replica.Mode{replica.Chain, replica.Quorum} {
			t.Run(fmt.Sprintf("%s-%s", eng, mode), func(t *testing.T) {
				drv, err := engine.Lookup(eng)
				if err != nil {
					t.Fatal(err)
				}
				parts := make([]replicaParts, replicas)
				members := make([]replica.Member, replicas)
				for r := 0; r < replicas; r++ {
					e, p := openReplicaStack(t, drv, true, durability(eng), uint64(300+r))
					parts[r] = p
					members[r] = replica.Member{Engine: e}
				}
				g, err := replica.New(mode, members)
				if err != nil {
					t.Fatal(err)
				}
				want := map[uint64]string{}
				var now sim.Duration
				put := func(id uint64, val string) {
					t.Helper()
					now, err = g.Put(now, kv.EncodeKey(id), []byte(val), 0)
					if err != nil {
						t.Fatalf("Put(%d): %v", id, err)
					}
					want[id] = val
				}
				del := func(id uint64) {
					t.Helper()
					now, err = g.Delete(now, kv.EncodeKey(id))
					if err != nil {
						t.Fatalf("Delete(%d): %v", id, err)
					}
					delete(want, id)
				}
				for id := uint64(0); id < 200; id++ {
					put(id, fmt.Sprintf("v%d", id))
				}
				// Clean shutdown of replica 1, then the group degrades.
				victim := g.Engine(1)
				if err := g.Kill(1); err != nil {
					t.Fatal(err)
				}
				if _, err := victim.Close(now); err != nil {
					t.Fatalf("closing the victim: %v", err)
				}
				// Degraded traffic the victim misses entirely.
				for id := uint64(0); id < 50; id++ {
					put(id, fmt.Sprintf("gen2-%d", id))
				}
				for id := uint64(100); id < 120; id++ {
					del(id)
				}
				for id := uint64(500); id < 520; id++ {
					put(id, fmt.Sprintf("new%d", id))
				}
				// Restart: recover the victim from its own device state.
				re, rnow, err := parts[1].cfg.Recover(engine.Env{
					FS:      parts[1].fs,
					RNG:     sim.NewRNG(777),
					Content: true,
				}, now)
				if err != nil {
					t.Fatalf("Recover: %v", err)
				}
				if err := g.Revive(1, replica.Member{Engine: re, Start: rnow}); err != nil {
					t.Fatal(err)
				}
				if now, err = g.Reconcile(max(now, rnow)); err != nil {
					t.Fatalf("Reconcile: %v", err)
				}
				// The group serves the exact final state.
				for id, val := range want {
					_, v, found, err := g.Get(now, kv.EncodeKey(id))
					if err != nil || !found || string(v) != val {
						t.Fatalf("Get(%d) = %q, %v, %v; want %q", id, v, found, err, val)
					}
				}
				for id := uint64(100); id < 120; id++ {
					_, _, found, err := g.Get(now, kv.EncodeKey(id))
					if err != nil || found {
						t.Fatalf("deleted key %d resurfaced (found=%v, err=%v)", id, found, err)
					}
				}
				// Every replica is byte-comparable to replica 0.
				ref := scanAll(t, g, 0, now)
				if len(ref) != len(want) {
					t.Fatalf("replica 0 holds %d keys, want %d", len(ref), len(want))
				}
				for r := 1; r < replicas; r++ {
					got := scanAll(t, g, r, now)
					if len(got) != len(ref) {
						t.Fatalf("replica %d holds %d keys, replica 0 holds %d", r, len(got), len(ref))
					}
					for i := range ref {
						if !bytes.Equal(ref[i].Key, got[i].Key) || !bytes.Equal(ref[i].Value, got[i].Value) {
							t.Fatalf("replica %d diverges at entry %d after reconcile", r, i)
						}
					}
				}
			})
		}
	}
}

// scanAll pages one replica's full key space directly off its engine.
func scanAll(t *testing.T, g *replica.Group, r int, now sim.Duration) []kv.Entry {
	t.Helper()
	var (
		out   []kv.Entry
		start = make([]byte, kv.KeySize)
	)
	for {
		_, ents, err := g.Engine(r).Scan(now, start, 128)
		if err != nil {
			t.Fatalf("scan replica %d: %v", r, err)
		}
		for _, e := range ents {
			out = append(out, kv.Entry{
				Key:      append([]byte(nil), e.Key...),
				Value:    append([]byte(nil), e.Value...),
				ValueLen: e.ValueLen,
			})
		}
		if len(ents) < 128 {
			return out
		}
		last := ents[len(ents)-1].Key
		start = append(append(start[:0], last...), 0)
		id, err := kv.DecodeKey(last)
		if err == nil {
			start = kv.EncodeKey(id + 1)
		}
	}
}
