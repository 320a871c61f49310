package memtable

import (
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

func BenchmarkMemtablePut(b *testing.B) {
	m := New(sim.NewRNG(1), new(Chunks))
	key := make([]byte, kv.KeySize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.AppendKey(key, uint64(i%100000))
		m.Put(key, nil, 128, uint64(i), false)
	}
}

func BenchmarkMemtableGet(b *testing.B) {
	m := New(sim.NewRNG(1), new(Chunks))
	for i := uint64(0); i < 100000; i++ {
		m.Put(kv.EncodeKey(i), nil, 128, i, false)
	}
	key := make([]byte, kv.KeySize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.AppendKey(key, uint64(i%100000))
		if m.Get(key) == nil {
			b.Fatal("missing key")
		}
	}
}
