package sstable

import (
	"testing"

	"ptsbench/internal/kv"
)

func BenchmarkSSTableBuild(b *testing.B) {
	entries := make([]kv.Entry, 10000)
	for i := range entries {
		entries[i] = kv.Entry{Key: kv.EncodeKey(uint64(i)), ValueLen: 128, Seq: uint64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := NewBuilder(4096, DefaultBlockBytes, false, 0, new(Spares))
		for j := range entries {
			if err := bld.Add(&entries[j]); err != nil {
				b.Fatal(err)
			}
		}
		bld.Finish(uint64(i))
	}
}

func BenchmarkBloomFilter(b *testing.B) {
	bl := newBloom(100000, new(Spares))
	for i := uint64(0); i < 100000; i++ {
		bl.Add(kv.EncodeKey(i))
	}
	key := make([]byte, kv.KeySize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.AppendKey(key, uint64(i))
		bl.mayContain(hash64(key))
	}
}
