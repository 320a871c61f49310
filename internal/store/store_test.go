package store_test

import (
	"bytes"
	"fmt"
	"testing"

	"ptsbench/internal/engine"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/store"
)

// mixedScript drives a fixed put/get/delete mix through fn, which maps
// (now, id, kind) to the next virtual time, and returns the end time.
// kinds: 0 get, 1 put, 2 delete.
func mixedScript(t *testing.T, ops int, fn func(now sim.Duration, id uint64, kind int) (sim.Duration, error)) sim.Duration {
	t.Helper()
	rng := sim.NewRNG(99)
	var now sim.Duration
	for i := 0; i < ops; i++ {
		id := rng.Uint64n(700)
		kind := 1
		switch {
		case rng.Uint64n(10) < 3:
			kind = 0
		case rng.Uint64n(16) == 0:
			kind = 2
		}
		var err error
		now, err = fn(now, id, kind)
		if err != nil {
			t.Fatal(err)
		}
	}
	return now
}

// TestSingleShardMatchesEngine pins the serving layer's zero-cost
// contract: a 1-shard store driven one op per pump is clock- and
// counter-identical to calling the engine directly.
func TestSingleShardMatchesEngine(t *testing.T) {
	drv, err := engine.Lookup("lsm")
	if err != nil {
		t.Fatal(err)
	}
	tun := map[string]string{"memtable_bytes": "16384"}

	direct, directParts := openShardStack(t, drv, false, tun, 7)
	key := make([]byte, kv.KeySize)
	endDirect := mixedScript(t, 3000, func(now sim.Duration, id uint64, kind int) (sim.Duration, error) {
		kv.AppendKey(key, id)
		switch kind {
		case 0:
			done, _, _, err := direct.Engine.Get(now, key)
			return done, err
		case 2:
			done, err := direct.Engine.(store.Deleter).Delete(now, key)
			return done, err
		default:
			return direct.Engine.Put(now, key, nil, 256)
		}
	})

	var viaParts shardParts
	st, err := store.New(1, func(i int) (store.Stack, error) {
		stack, p := openShardStack(t, drv, false, tun, 7)
		viaParts = p
		return stack, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	endStore := mixedScript(t, 3000, func(now sim.Duration, id uint64, kind int) (sim.Duration, error) {
		kv.AppendKey(key, id)
		op := store.Op{Client: 0, Submit: now, KeyID: id, Key: key}
		switch kind {
		case 0:
			op.Kind = store.Get
		case 2:
			op.Kind = store.Delete
		default:
			op.Kind = store.Put
			op.ValueLen = 256
		}
		st.Submit(op)
		c := st.Pump()[0]
		return c.Done, c.Err
	})

	if endDirect != endStore {
		t.Fatalf("virtual end time diverged: direct %d, store %d", endDirect, endStore)
	}
	if ds, ss := direct.Engine.Stats(), st.Stats(); ds != ss {
		t.Fatalf("engine stats diverged:\ndirect %+v\nstore  %+v", ds, ss)
	}
	if dc, sc := directParts.dev.Counters(), viaParts.dev.Counters(); dc != sc {
		t.Fatalf("device counters diverged:\ndirect %+v\nstore  %+v", dc, sc)
	}
}

// pumpFingerprint drives a multi-client workload through an N-shard
// store in submission epochs and fingerprints every completion.
func pumpFingerprint(t *testing.T, shards, clients, epochs int) string {
	t.Helper()
	drv, err := engine.Lookup("lsm")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(shards, func(i int) (store.Stack, error) {
		stack, _ := openShardStack(t, drv, false, map[string]string{"memtable_bytes": "16384"}, uint64(10+i))
		return stack, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	rngs := make([]*sim.RNG, clients)
	clocks := make([]sim.Duration, clients)
	keys := make([][]byte, clients)
	for c := range rngs {
		rngs[c] = sim.NewRNG(uint64(1000 + c))
		keys[c] = make([]byte, kv.KeySize)
	}
	var buf bytes.Buffer
	for e := 0; e < epochs; e++ {
		for c := 0; c < clients; c++ {
			id := rngs[c].Uint64n(5000)
			kv.AppendKey(keys[c], id)
			op := store.Op{Client: c, Submit: clocks[c], KeyID: id, Key: keys[c]}
			if rngs[c].Uint64n(4) == 0 {
				op.Kind = store.Get
			} else {
				op.Kind = store.Put
				op.ValueLen = 128
			}
			st.Submit(op)
		}
		for _, comp := range st.Pump() {
			if comp.Err != nil {
				t.Fatal(comp.Err)
			}
			clocks[comp.Client] = comp.Done
			fmt.Fprintf(&buf, "%d:%d:%d:%v ", comp.Seq, comp.Client, comp.Done, comp.Found)
		}
	}
	fmt.Fprintf(&buf, "| %+v", st.Stats())
	return buf.String()
}

// TestShardedDeterminism pins the determinism contract: identical
// submission sequences produce identical completions, clock for clock,
// at any shard count.
func TestShardedDeterminism(t *testing.T) {
	a := pumpFingerprint(t, 4, 8, 200)
	b := pumpFingerprint(t, 4, 8, 200)
	if a != b {
		t.Fatal("identical multi-shard workloads diverged")
	}
}

// TestCrossShardScanOrdering checks the scatter + k-way merge against a
// reference model: keys hash-spread over 3 shards must come back in one
// globally sorted stream, deletes excluded, limits respected.
func TestCrossShardScanOrdering(t *testing.T) {
	drv, err := engine.Lookup("btree")
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(3, func(i int) (store.Stack, error) {
		stack, _ := openShardStack(t, drv, true, map[string]string{"leaf_page_bytes": "2048"}, uint64(30+i))
		return stack, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sy := &store.Sync{S: st}

	live := map[uint64]bool{}
	var now sim.Duration
	for id := uint64(0); id < 400; id++ {
		if now, err = sy.Put(now, kv.EncodeKey(id), []byte{byte(id)}, 0); err != nil {
			t.Fatal(err)
		}
		live[id] = true
	}
	if now, err = sy.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 400; id += 5 {
		if now, err = sy.Delete(now, kv.EncodeKey(id)); err != nil {
			t.Fatal(err)
		}
		live[id] = false
	}

	for _, tc := range []struct {
		start uint64
		limit int
	}{{0, 1000}, {37, 60}, {390, 50}} {
		_, got, err := st.Scan(now, kv.EncodeKey(tc.start), tc.limit)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for id := tc.start; id < 400 && len(want) < tc.limit; id++ {
			if live[id] {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("scan(%d,%d): %d entries, want %d", tc.start, tc.limit, len(got), len(want))
		}
		for i, e := range got {
			id, err := kv.DecodeKey(e.Key)
			if err != nil {
				t.Fatal(err)
			}
			if id != want[i] {
				t.Fatalf("scan(%d,%d) position %d: key %d, want %d", tc.start, tc.limit, i, id, want[i])
			}
			if i > 0 && kv.CompareKeys(got[i-1].Key, e.Key) >= 0 {
				t.Fatalf("scan out of order at position %d", i)
			}
		}
	}
}

// TestGroupCommitSharesJournalSync: a pump whose intake carries several
// writes brackets them with the engine's group commit, collapsing
// per-put journal tail-page rewrites into one shared sync — strictly
// fewer host bytes than pumping the same puts one by one.
func TestGroupCommitSharesJournalSync(t *testing.T) {
	drv, err := engine.Lookup("btree")
	if err != nil {
		t.Fatal(err)
	}
	tun := map[string]string{"journal_sync": "true"}
	run := func(grouped bool) (int64, []store.Completion) {
		var parts shardParts
		st, err := store.New(1, func(i int) (store.Stack, error) {
			stack, p := openShardStack(t, drv, false, tun, 5)
			parts = p
			return stack, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		keys := make([][]byte, 8)
		var comps []store.Completion
		for i := range keys {
			keys[i] = kv.EncodeKey(uint64(i))
			st.Submit(store.Op{Kind: store.Put, Submit: 0, KeyID: uint64(i), Key: keys[i], ValueLen: 64})
			if !grouped {
				comps = append(comps, st.Pump()...)
			}
		}
		if grouped {
			comps = append(comps, st.Pump()...)
		}
		for _, c := range comps {
			if c.Err != nil {
				t.Fatal(c.Err)
			}
		}
		return parts.dev.Counters().BytesWritten, comps
	}
	groupedBytes, groupedComps := run(true)
	serialBytes, _ := run(false)
	if groupedBytes >= serialBytes {
		t.Fatalf("group commit wrote %d host bytes, serial syncs wrote %d — expected fewer", groupedBytes, serialBytes)
	}
	// Group-committed writes all become durable at the shared sync.
	last := groupedComps[len(groupedComps)-1].Done
	for _, c := range groupedComps {
		if c.Done != last {
			t.Fatalf("grouped write completed at %d, want shared sync time %d", c.Done, last)
		}
	}
}

// TestManyClientsFewShardsStress hammers 2 shards with 64 clients for
// many epochs — intakes of ~32 requests a shard, submit times out of
// order — and checks the pipeline stays deterministic under it.
func TestManyClientsFewShardsStress(t *testing.T) {
	a := pumpFingerprint(t, 2, 64, 150)
	b := pumpFingerprint(t, 2, 64, 150)
	if a != b {
		t.Fatal("stress workloads diverged")
	}
}

// TestShardOfSpreads sanity-checks the routing hash: sequential key ids
// must spread roughly evenly (within 2x of fair share over 8 shards).
func TestShardOfSpreads(t *testing.T) {
	const shards, n = 8, 1 << 14
	var counts [shards]int
	for id := uint64(0); id < n; id++ {
		s := store.ShardOf(id, shards)
		if s < 0 || s >= shards {
			t.Fatalf("ShardOf(%d) = %d out of range", id, s)
		}
		counts[s]++
	}
	for s, c := range counts {
		if c < n/shards/2 || c > n/shards*2 {
			t.Fatalf("shard %d owns %d of %d keys — routing hash is skewed", s, c, n)
		}
	}
}
