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
	var m mem
	leaf := &page{Node: cowtree.Node{Leaf: true, Serialized: pageHeaderBytes}}
	rng := sim.NewRNG(1)
	var keys [][]byte
	entry := cowtree.MakeRecord(kv.EncodeKey(0), 0, benchLeafVlen, false)
	for leaf.Serialized+entry.Size() <= NewConfig(1<<30).LeafPageBytes {
		k := kv.EncodeKey(rng.Uint64())
		keys = append(keys, k)
		leaf.insertLeaf(&m, cowtree.MakeRecord(k, uint64(len(keys)), benchLeafVlen, false), k, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := cowtree.FindRecord(leaf.entries, kv.NewTarget(keys[rng.Intn(len(keys))]))
		if e == nil {
			b.Fatal("a resident key missed")
		}
		benchLeafHit += e.Vlen()
	}
}
