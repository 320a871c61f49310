package memtable

import (
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// BenchmarkMemtablePut inserts laps of 100,000 distinct keys, each lap
// into a fresh memtable carved from the previous lap's chunks:
// /ascending in key order, the order store.Load's set-up inserts in,
// and /random in one fixed random order, whose inserts walk the
// skiplist from the head.
func BenchmarkMemtablePut(b *testing.B) {
	const lap = 100000
	ascending, random := make([]uint64, lap), make([]uint64, lap)
	rng := sim.NewRNG(1)
	for i := range ascending {
		ascending[i], random[i] = uint64(i), rng.Uint64()
	}
	for _, c := range []struct {
		name string
		ids  []uint64
	}{{"ascending", ascending}, {"random", random}} {
		b.Run(c.name, func(b *testing.B) {
			chunks := new(Chunks)
			m := New(1, chunks)
			key := make([]byte, kv.KeySize)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i > 0 && i%lap == 0 {
					m.Release()
					m = New(1, chunks)
				}
				kv.AppendKey(key, c.ids[i%lap])
				m.Put(key, nil, 128, uint64(i), false)
			}
		})
	}
}

func BenchmarkMemtableGet(b *testing.B) {
	m := New(1, new(Chunks))
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
