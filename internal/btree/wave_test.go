package btree

import (
	"bytes"
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// TestPlannedWavesMatchUnplanned drives two trees with the same
// operations, one planning each read wave (PlanGets) and one not, and
// requires every Get to answer the same value at the same virtual time
// and the trees to end with the same counters. Between a plan and its
// Gets it puts keys beside the wave's own, splitting their leaves (once
// until the root splits), runs the Gets out of plan order, and repeats
// a Get the way the store's redo does. Gets in plan order must take the
// plan.
func TestPlannedWavesMatchUnplanned(t *testing.T) {
	tweak := func(c *Config) {
		c.LeafPageBytes, c.InternalPageBytes = 1<<10, 512
		c.CacheBytes = 32 << 10 // Gets miss and evict
	}
	planned, _, _ := testEnv(t, 64, false, tweak)
	plain, _, _ := testEnv(t, 64, false, tweak)
	rng := sim.NewRNG(5)
	var now sim.Duration
	present := map[string]bool{}
	put := func(k []byte) {
		t.Helper()
		present[string(k)] = true
		a, errA := planned.Put(now, k, nil, 40)
		b, errB := plain.Put(now, k, nil, 40)
		if errA != nil || errB != nil || a != b {
			t.Fatalf("put %x: planned (%v, %v), unplanned (%v, %v)", k, a, errA, b, errB)
		}
		now = a
	}
	get := func(k []byte) {
		t.Helper()
		a, va, fa, errA := planned.Get(now, k)
		b, vb, fb, errB := plain.Get(now, k)
		if errA != nil || errB != nil || a != b || fa != fb || !bytes.Equal(va, vb) {
			t.Fatalf("get %x: planned (%v, %v, %v), unplanned (%v, %v, %v)", k, a, fa, errA, b, fb, errB)
		}
		if fa != present[string(k)] {
			t.Fatalf("get %x: found %v, stored %v", k, fa, present[string(k)])
		}
		now = a
	}
	// Stored keys are n<<20; the ids between them are free for the
	// puts that split a wave's leaves.
	const stored = 400
	for n := uint64(0); n < stored; n++ {
		put(kv.EncodeKey(n << 20))
	}
	wave := make([][]byte, 16)
	ids := make([]uint64, len(wave))
	rootSplits, taken := 0, 0
	next := uint64(1)
	for round := 0; round < 400; round++ {
		for i := range wave {
			if i > 0 && rng.Intn(8) == 0 {
				ids[i] = ids[i-1] // the same key twice in one wave
			} else {
				ids[i] = rng.Uint64n(stored)<<20 + rng.Uint64n(2)*next // sometimes absent
			}
			wave[i] = kv.EncodeKey(ids[i])
		}
		planned.PlanGets(wave)
		switch round % 4 {
		case 0: // in plan order: every Get takes its planned leaf
			for _, k := range wave {
				get(k)
			}
			if planned.next != len(wave) {
				t.Fatalf("round %d: %d of %d planned leaves taken", round, planned.next, len(wave))
			}
			taken += planned.next
		case 1: // out of plan order
			for i := len(wave) - 1; i >= 0; i-- {
				get(wave[i])
			}
		case 2: // a redo: one Get twice, then the rest of the wave
			for i, k := range wave {
				get(k)
				if i == 3 {
					get(k)
				}
			}
		case 3: // writes between the plan and its Gets
			depth, splits := planned.Depth(), planned.IO().LeafSplits
			for i := 0; planned.IO().LeafSplits == splits || rootSplits == 0 && planned.Depth() == depth; i++ {
				put(kv.EncodeKey(ids[i%len(ids)] + next))
				next++
			}
			if planned.Depth() != depth {
				rootSplits++
			}
			for _, k := range wave {
				get(k)
			}
		}
	}
	if rootSplits == 0 || taken == 0 {
		t.Fatalf("%d root splits between a plan and its Gets, %d planned leaves taken", rootSplits, taken)
	}
	if a, b := planned.IO(), plain.IO(); a != b {
		t.Fatalf("counters diverge: planned %+v, unplanned %+v", a, b)
	}
	if err := planned.Check(); err != nil {
		t.Fatal(err)
	}
}
