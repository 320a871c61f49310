package btree

import (
	"testing"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// benchLeafVlen is BenchmarkLeafGet's accounted value length: small
// enough that a full default-size leaf holds a few hundred entries, so a
// lookup's binary search takes about nine probes.
const benchLeafVlen = 100

// benchLeafHit keeps BenchmarkLeafGet's lookups observable.
var benchLeafHit int

// BenchmarkLeafGet is the leaf half of a B+Tree point read: in one full
// accounting-mode leaf of the default size (48 KiB) holding random
// 16-byte keys, a lookup of a random resident key — the leaf search and
// the key match Get does once the descent has reached the leaf.
func BenchmarkLeafGet(b *testing.B) {
	var c cowtree.Core
	leaf := &cowtree.Node{Leaf: true, Serialized: cowtree.PageHeaderBytes}
	rng := sim.NewRNG(1)
	var keys [][]byte
	entry := cowtree.MakeRecord(kv.EncodeKey(0), 0, benchLeafVlen, false)
	for leaf.Serialized+entry.Size() <= NewConfig(1<<30).LeafPageBytes {
		k := kv.EncodeKey(rng.Uint64())
		keys = append(keys, k)
		c.InsertLeaf(leaf, cowtree.MakeRecord(k, uint64(len(keys)), benchLeafVlen, false), k, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := cowtree.FindRecord(leaf.Entries, kv.NewTarget(keys[rng.Intn(len(keys))]))
		if e == nil {
			b.Fatal("a resident key missed")
		}
		benchLeafHit += e.Vlen()
	}
}

// benchDescendKeys is how many keys BenchmarkDescend's tree holds:
// with 8 KiB leaves and the default 4 KiB internal pages, enough for a
// root over internal pages over leaves.
const benchDescendKeys = 100000

// benchDescendLeaf keeps BenchmarkDescend's descents observable.
var benchDescendLeaf *cowtree.Node

// BenchmarkDescend is the interior half of a B+Tree point read: in an
// accounting-mode tree of depth >= 3 whose pages are all resident, the
// walk from the root to the leaf covering a random resident key — the
// key's decoding and one separator search per internal page.
func BenchmarkDescend(b *testing.B) {
	tr, _, _ := testEnv(b, 256, false, func(c *Config) {
		c.LeafPageBytes = 8 << 10
		c.CacheBytes = 1 << 30
	})
	rng := sim.NewRNG(1)
	keys := make([][]byte, benchDescendKeys)
	var now sim.Duration
	var err error
	for i := range keys {
		keys[i] = kv.EncodeKey(rng.Uint64())
		if now, err = tr.Put(now, keys[i], nil, benchLeafVlen); err != nil {
			b.Fatal(err)
		}
	}
	if d := tr.Depth(); d < 3 {
		b.Fatalf("depth %d, want >= 3", d)
	}
	for _, p := range pages(tr) {
		if p.Leaf && !p.Resident {
			b.Fatalf("leaf %d is not resident", p.ID)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDescendLeaf = tr.descend(kv.NewTarget(keys[rng.Intn(len(keys))]))
	}
}
