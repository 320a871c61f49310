package store_test

import (
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/replica"
	"ptsbench/internal/sim"
	"ptsbench/internal/store"
)

// TestPumpRoundAllocs gates the serving path the way the engines under
// it are gated: from Submit to reading the completions, a round through
// 2 shards of quorum R=3 groups allocates nothing. The engines are
// scripted (pureEngine allocates nothing), so every allocation counted
// is the store's or the replica group's. Submit times descend within a
// round, so each shard's intake sort runs.
func TestPumpRoundAllocs(t *testing.T) {
	const shards, replicas, clients = 2, 3, 8
	st, err := store.New(shards, func(int) (store.Stack, error) {
		members := make([]replica.Member, replicas)
		for r := range members {
			members[r] = replica.Member{Engine: &pureEngine{}}
		}
		g, err := replica.New(replica.Quorum, members)
		return store.Stack{Engine: g}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, clients)
	for c := range keys {
		keys[c] = kv.EncodeKey(uint64(c))
	}
	if a, b := store.ShardOf(0, shards), store.ShardOf(1, shards); a == b {
		t.Fatalf("keys 0 and 1 both route to shard %d: the round would leave a shard idle", a)
	}
	var now sim.Duration
	var failed error
	round := func() {
		for c := 0; c < clients; c++ {
			op := store.Op{Kind: store.Get, Client: c, Submit: now + sim.Duration(clients-c), KeyID: uint64(c), Key: keys[c]}
			if c%2 == 1 {
				op.Kind, op.ValueLen = store.Put, 64
			}
			st.Submit(op)
		}
		for _, c := range st.Pump() {
			if c.Err != nil {
				failed = c.Err
			}
			now = max(now, c.Done)
		}
	}
	if avg := testing.AllocsPerRun(200, round); avg != 0 {
		t.Errorf("a round of %d submits, a pump and reading the completions allocates %.2f times, want 0", clients, avg)
	}
	if failed != nil {
		t.Fatal(failed)
	}
}
