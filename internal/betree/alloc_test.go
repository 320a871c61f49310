package betree

import (
	"testing"
	"time"
	"unsafe"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// TestSteadyStatePutAllocs pins the allocation-free update path: on a
// warm tree — dataset loaded and checkpointed, root buffer filling and
// flushing message batches down the spine, the small leaf cache
// evicting — a Put allocates nothing beyond amortized slice growth.
// Checkpoints are pushed out of the measured window: their machinery is
// background work that runs once a minute, not the op loop.
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
}

// TestNodeSize bounds the in-memory node, of which the tree keeps one
// per leaf and interior: a leaf is a bare cowtree.Node (80 bytes), an
// interior that plus its cowtree.Interior, pivots and buffers (184
// bytes together since the pivots hold only separator words; 208
// before). The bounds may come down, and raising one must be a
// deliberate edit here.
func TestNodeSize(t *testing.T) {
	leaf := unsafe.Sizeof(cowtree.Node{})
	if leaf > 80 {
		t.Fatalf("a leaf is %d bytes, bound 80", leaf)
	}
	if interior := leaf + unsafe.Sizeof(cowtree.Interior{}); interior > 184 {
		t.Fatalf("an interior is %d bytes, bound 184", interior)
	}
}
