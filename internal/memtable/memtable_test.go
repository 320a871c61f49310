package memtable

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

func newMT() *Memtable { return New(sim.NewRNG(1)) }

func TestPutGet(t *testing.T) {
	m := newMT()
	m.Put(kv.EncodeKey(5), []byte("hello"), 0, 1, false)
	e := m.Get(kv.EncodeKey(5))
	if e == nil || string(e.Value) != "hello" || e.Seq != 1 {
		t.Fatalf("Get = %+v", e)
	}
	if m.Get(kv.EncodeKey(6)) != nil {
		t.Fatal("missing key should return nil")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestUpsertReplaces(t *testing.T) {
	m := newMT()
	m.Put(kv.EncodeKey(1), []byte("v1"), 0, 1, false)
	size1 := m.SizeBytes()
	m.Put(kv.EncodeKey(1), []byte("v2-longer"), 0, 2, false)
	if m.Len() != 1 {
		t.Fatalf("Len after upsert = %d, want 1", m.Len())
	}
	e := m.Get(kv.EncodeKey(1))
	if string(e.Value) != "v2-longer" || e.Seq != 2 {
		t.Fatalf("upsert failed: %+v", e)
	}
	if m.SizeBytes() <= size1 {
		t.Fatal("size should grow with longer value")
	}
}

func TestTombstone(t *testing.T) {
	m := newMT()
	m.Put(kv.EncodeKey(1), []byte("v"), 0, 1, false)
	m.Put(kv.EncodeKey(1), nil, 0, 2, true)
	e := m.Get(kv.EncodeKey(1))
	if e == nil || !e.Deleted {
		t.Fatalf("tombstone not recorded: %+v", e)
	}
}

func TestAccountingOnlyMode(t *testing.T) {
	m := newMT()
	m.Put(kv.EncodeKey(1), nil, 4000, 1, false)
	e := m.Get(kv.EncodeKey(1))
	if e.Value != nil || e.ValueLen != 4000 {
		t.Fatalf("accounting entry wrong: %+v", e)
	}
	if m.SizeBytes() < 4000 {
		t.Fatalf("SizeBytes %d should include synthetic value length", m.SizeBytes())
	}
}

func TestIteratorOrder(t *testing.T) {
	m := newMT()
	ids := []uint64{5, 1, 9, 3, 7, 2, 8, 4, 6, 0}
	for i, id := range ids {
		m.Put(kv.EncodeKey(id), nil, 10, uint64(i), false)
	}
	it := m.Iterator()
	var got []uint64
	for it.Next() {
		id, err := kv.DecodeKey(it.Entry().Key)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, id)
	}
	if len(got) != len(ids) {
		t.Fatalf("iterated %d entries, want %d", len(got), len(ids))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatalf("iterator out of order: %v", got)
	}
}

func TestEmptyIterator(t *testing.T) {
	it := newMT().Iterator()
	if it.Next() {
		t.Fatal("empty iterator should be exhausted")
	}
}

func TestSizeGrowsPerEntry(t *testing.T) {
	m := newMT()
	var last int64
	for i := uint64(0); i < 100; i++ {
		m.Put(kv.EncodeKey(i), nil, 100, i, false)
		if m.SizeBytes() <= last {
			t.Fatal("SizeBytes must grow with distinct inserts")
		}
		last = m.SizeBytes()
	}
}

func TestKeyIsCopied(t *testing.T) {
	m := newMT()
	key := kv.EncodeKey(1)
	val := []byte("abc")
	m.Put(key, val, 0, 1, false)
	key[15] = 0xFF // mutate caller's buffers
	val[0] = 'X'
	e := m.Get(kv.EncodeKey(1))
	if e == nil {
		t.Fatal("mutating caller's key buffer affected the memtable")
	}
	if string(e.Value) != "abc" {
		t.Fatal("mutating caller's value buffer affected the memtable")
	}
}

// Property: memtable matches a reference map under random workloads.
func TestMemtableMatchesMapProperty(t *testing.T) {
	f := func(seed uint64, ops []uint16) bool {
		m := New(sim.NewRNG(seed))
		ref := map[uint64]uint64{} // id -> latest seq
		seq := uint64(0)
		rng := sim.NewRNG(seed + 1)
		for range ops {
			id := rng.Uint64n(64)
			seq++
			m.Put(kv.EncodeKey(id), nil, 8, seq, false)
			ref[id] = seq
		}
		if m.Len() != len(ref) {
			return false
		}
		for id, want := range ref {
			e := m.Get(kv.EncodeKey(id))
			if e == nil || e.Seq != want {
				return false
			}
		}
		// Iterator yields exactly the reference keys, sorted.
		it := m.Iterator()
		var prev []byte
		count := 0
		for it.Next() {
			k := it.Entry().Key
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				return false
			}
			prev = append(prev[:0], k...)
			count++
		}
		return count == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestPutAllocs pins the arena-backed insert path: nodes, keys and
// values come out of chunked arenas, so a Put allocates only when a
// chunk refills — far below one object per ten operations.
func TestPutAllocs(t *testing.T) {
	m := newMT()
	key := make([]byte, kv.KeySize)
	var seq uint64
	put := func() {
		kv.AppendKey(key, seq%100000)
		m.Put(key, nil, 128, seq, false)
		seq++
	}
	for seq < 1000 {
		put()
	}
	if allocs := testing.AllocsPerRun(20000, put); allocs > 0.1 {
		t.Fatalf("Put allocates %.3f objects/op, want ~0", allocs)
	}
}
