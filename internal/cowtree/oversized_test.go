package cowtree_test

import (
	"bytes"
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
)

// TestOversizedRecordKeepsItsLeaf pins the leaf split's guard in both
// trees: a leaf holding one record larger than LeafPageBytes stays
// whole, since its half split would leave the leaf empty and the new
// one as large. Fifty overwrites of one key with a 2,000-byte value
// under 1 KiB leaves keep the tree at one leaf — through the write path
// and again when recovery replays them from the journal — and a second
// key then splits the leaf into two one-record leaves.
func TestOversizedRecordKeepsItsLeaf(t *testing.T) {
	for _, name := range []string{"btree", "betree"} {
		t.Run(name, func(t *testing.T) {
			l := stack.Small(name, map[string]string{"leaf_page_bytes": "1024"})
			l.Content = true
			l.RNG = sim.NewRNG(1)
			built, err := stack.Build(l)
			if err != nil {
				t.Fatal(err)
			}
			defer built.Close()
			shape := func(phase string, e tree, wantLeaves, wantInteriors int) {
				t.Helper()
				if leaves, interiors := e.NodeCount(); leaves != wantLeaves || interiors != wantInteriors {
					t.Fatalf("%s: %d leaves and %d interiors (depth %d), want %d and %d",
						phase, leaves, interiors, e.Depth(), wantLeaves, wantInteriors)
				}
				if err := e.(interface{ Check() error }).Check(); err != nil {
					t.Fatalf("%s: %v", phase, err)
				}
			}

			e := built.Engine.(tree)
			key := kv.EncodeKey(7)
			val := make([]byte, 2000)
			var now sim.Duration
			for i := 0; i < 50; i++ {
				kv.SynthValue(val, key, uint64(i))
				if now, err = e.Put(now, key, val, 0); err != nil {
					t.Fatal(err)
				}
			}
			shape("after the overwrites", e, 1, 0)

			re, now, err := built.Recover(sim.NewRNG(2), now)
			if err != nil {
				t.Fatal(err)
			}
			r := re.(tree)
			shape("after recovery", r, 1, 0)
			now, got, found, err := r.Get(now, key)
			if err != nil || !found || !bytes.Equal(got, val) {
				t.Fatalf("recovered Get: found=%v err=%v, value matches: %v", found, err, bytes.Equal(got, val))
			}

			if _, err = r.Put(now, kv.EncodeKey(9), val, 0); err != nil {
				t.Fatal(err)
			}
			shape("after a second key", r, 2, 1)
		})
	}
}
