package store_test

import (
	"fmt"
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
	"ptsbench/internal/store"
)

// BenchmarkPump is the layer-level number behind servicing a pump on
// the caller's goroutine: host ns and allocations per user operation
// through a 2-shard store of quorum R=3 groups over small real LSM
// stacks, at about 4, 32 and 512 operations per shard per pump, for
// Store.Pump ("caller") and for the pump it replaced
// ("workers", store.WorkerPump). Every figure, spec and benchmark cell in
// the repository pumps at most 16 operations into a multi-shard store;
// the sweep is there so the crossover — the intake size above which a
// thread handoff per shard pays — can be re-measured on any machine.
func BenchmarkPump(b *testing.B) {
	const shards, replicas, keys = 2, 3, 20000
	for _, perShard := range []int{4, 32, 512} {
		for _, mode := range []string{"caller", "workers"} {
			b.Run(fmt.Sprintf("ops=%d/%s", perShard, mode), func(b *testing.B) {
				cl, err := stack.BuildCluster(shards, replicas, "quorum", false, func(shard, rep int) stack.Layout {
					l := stack.Small("lsm", nil)
					l.RNG = sim.NewRNG(uint64(1 + shard*replicas + rep))
					return l
				})
				if err != nil {
					b.Fatal(err)
				}
				defer cl.Close()
				pump := cl.Store.Pump
				if mode == "workers" {
					w := store.NewWorkerPump(cl.Store)
					defer w.Close()
					pump = w.Pump
				}
				if _, err := cl.Store.Load(128, keys); err != nil {
					b.Fatal(err)
				}
				// One closed-loop client per slot of the pump, each
				// submitting at the time its previous operation completed.
				clients := shards * perShard
				clocks := make([]sim.Duration, clients)
				bufs := make([][]byte, clients)
				for c := range bufs {
					bufs[c] = make([]byte, kv.KeySize)
				}
				rng := sim.NewRNG(7)
				b.ReportAllocs()
				b.ResetTimer()
				for left := b.N; left > 0; left -= clients {
					for c := 0; c < min(clients, left); c++ {
						id := rng.Uint64n(keys)
						kv.AppendKey(bufs[c], id)
						op := store.Op{Kind: store.Get, Client: c, Submit: clocks[c], KeyID: id, Key: bufs[c]}
						if rng.Intn(2) == 0 {
							op.Kind, op.ValueLen = store.Put, 128
						}
						cl.Store.Submit(op)
					}
					for _, c := range pump() {
						if c.Err != nil {
							b.Fatal(c.Err)
						}
						clocks[c.Client] = c.Done
					}
				}
			})
		}
	}
}
