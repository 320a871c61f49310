package btree

import (
	"testing"
	"time"
	"unsafe"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/workload"
)

// TestSteadyStatePutAllocs pins the allocation-free update path: on a
// warm tree — dataset loaded and checkpointed, the deliberately tiny
// cache evicting and writing out a leaf on most updates — a Put
// allocates nothing beyond amortized slice growth. Checkpoints are
// pushed out of the measured window: their machinery is background
// work that runs once a minute, not the op loop.
func TestSteadyStatePutAllocs(t *testing.T) {
	tr, _, _ := testEnv(t, 256, false, func(c *Config) {
		c.CheckpointInterval = 1000 * time.Hour
		c.CheckpointPendingBytes = 1 << 40
	})
	const keys = 20000
	key := make([]byte, kv.KeySize)
	var now sim.Duration
	var err error
	for id := uint64(0); id < keys; id++ {
		kv.AppendKey(key, id)
		if now, err = tr.Put(now, key, nil, 400); err != nil {
			t.Fatal(err)
		}
	}
	if now, err = tr.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(2)
	put := func() {
		kv.AppendKey(key, rng.Uint64n(keys))
		var err error
		if now, err = tr.Put(now, key, nil, 400); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5000; i++ {
		put()
	}
	before := tr.IO().Checkpoints
	if allocs := testing.AllocsPerRun(2000, put); allocs > 0.1 {
		t.Fatalf("steady-state Put allocates %.3f objects/op, want ~0", allocs)
	}
	if tr.IO().Checkpoints != before {
		t.Fatal("a checkpoint ran inside the measured window")
	}

	// A fresh accounting-mode put of a kv.KeySize key keeps the key as
	// its record's words: it takes nothing from the arena. (A put that
	// splits its leaf takes the separator's bytes, so those are skipped.)
	checked := 0
	for id := uint64(keys); id < keys+100; id++ {
		splits := tr.IO().LeafSplits
		kv.AppendKey(key, id)
		taken := arenaTaken(tr.Core.Arena(), func() {
			if now, err = tr.Put(now, key, nil, 400); err != nil {
				t.Fatal(err)
			}
		})
		if tr.IO().LeafSplits != splits {
			continue
		}
		if taken != 0 {
			t.Fatalf("a fresh accounting-mode put of a %d-byte key took %d arena bytes", kv.KeySize, taken)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("every fresh put split its leaf")
	}
}

// arenaTaken returns how many bytes the arena handed out while f ran,
// from the distance between a one-byte allocation before f and one
// after it.
func arenaTaken(a *cowtree.RecordArena, f func()) int {
	before := a.Alloc(1)
	f()
	after := a.Alloc(1)
	return int(uintptr(unsafe.Pointer(&after[0])) - uintptr(unsafe.Pointer(&before[0])) - 1)
}

// TestArraysSizedToWhatTheyHold is the footprint gate peak_rss_mb is too
// far away to be: after a sequential load and Zipfian overwrites of
// benchmark-shaped data (4,000-byte accounted values) the leaf entry
// arrays keep at most two slots per entry. Before splitLeaf re-homed the
// half that stays, a 9-entry leaf in 16 slots split into 4 entries still
// holding 16 — most leaves after a sequential load.
func TestArraysSizedToWhatTheyHold(t *testing.T) {
	const keys = 50000
	tr, _, _ := testEnv(t, 1024, false, nil)
	var now sim.Duration
	var err error
	key := make([]byte, kv.KeySize)
	for id := uint64(0); id < keys; id++ {
		kv.AppendKey(key, id)
		if now, err = tr.Put(now, key, nil, 4000); err != nil {
			t.Fatal(err)
		}
	}
	gens, err := workload.NewClientGenerators(workload.Spec{
		NumKeys: keys, ValueBytes: 4000, Dist: workload.Zipfian, ZipfTheta: 0.99,
	}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	gen := gens[0]
	for i := 0; i < keys; i++ {
		kv.AppendKey(key, gen.Next().KeyID)
		if now, err = tr.Put(now, key, nil, 4000); err != nil {
			t.Fatal(err)
		}
	}
	var entries, slots int
	for _, p := range pages(tr) {
		entries += len(p.Entries)
		slots += cap(p.Entries)
	}
	t.Logf("leaf entries: %d in %d slots (%.2fx)", entries, slots, float64(slots)/float64(entries))
	if entries != keys {
		t.Fatalf("%d leaf entries, want %d", entries, keys)
	}
	if slots > 2*entries {
		t.Errorf("leaf entry arrays keep %d slots for %d entries", slots, entries)
	}
}

// TestPageSize bounds the in-memory page, a plain cowtree.Node, of which
// the tree keeps one per leaf and internal page. 152 bytes is its size
// since the pivot section and the leaf entries moved into cowtree.Node:
// the bound may come down, and raising it must be a deliberate edit
// here.
func TestPageSize(t *testing.T) {
	if sz := unsafe.Sizeof(cowtree.Node{}); sz > 152 {
		t.Fatalf("cowtree.Node is %d bytes, bound 152", sz)
	}
}
