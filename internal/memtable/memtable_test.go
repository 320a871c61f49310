package memtable

import (
	"bytes"
	"sort"
	"testing"
	"testing/quick"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

func newMT() *Memtable { return New(1, new(Chunks)) }

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
		m := New(seed, new(Chunks))
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

// TestRecycledChunksMatchFresh fills a memtable past several chunks of
// each kind, releases it, and replays one operation sequence into a
// memtable carved from the released chunks and into a fresh one with
// the same RNG: every Get and the full iteration must agree. (That the
// released chunks are taken first, and cleared, is arena's to test.)
func TestRecycledChunksMatchFresh(t *testing.T) {
	free := new(Chunks)
	value := func(id, gen uint64) []byte {
		if id%5 == 0 {
			return nil // accounting-mode entry
		}
		v := make([]byte, 1+id%200)
		kv.SynthValue(v, kv.EncodeKey(id), gen)
		return v
	}
	old := New(3, free)
	for id := uint64(0); id < 3000; id++ {
		old.Put(kv.EncodeKey(id*3), value(id, 1), 64, id, false)
	}
	old.Release()
	if len(free.nodes) < 2 || len(free.ptrs) < 2 || len(free.bytes) < 2 {
		t.Fatalf("old memtable released %d/%d/%d chunks, want several of each",
			len(free.nodes), len(free.ptrs), len(free.bytes))
	}
	releasedNodes := len(free.nodes)

	reused := New(9, free)
	fresh := New(9, new(Chunks))
	rng := sim.NewRNG(11)
	for seq := uint64(1); seq <= 4000; seq++ {
		id := rng.Uint64n(2500)
		del := rng.Uint64n(10) == 0
		v := value(id, seq)
		if del {
			v = nil
		}
		reused.Put(kv.EncodeKey(id*2), v, 32, seq, del)
		fresh.Put(kv.EncodeKey(id*2), v, 32, seq, del)
	}
	if len(free.nodes) >= releasedNodes {
		t.Fatal("the new memtable took no released node chunk")
	}
	if reused.Len() != fresh.Len() || reused.SizeBytes() != fresh.SizeBytes() {
		t.Fatalf("reused holds %d entries / %d bytes, fresh %d / %d",
			reused.Len(), reused.SizeBytes(), fresh.Len(), fresh.SizeBytes())
	}
	sameEntry := func(a, b *kv.Entry) bool {
		if a == nil || b == nil {
			return a == b
		}
		return bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value) &&
			(a.Value == nil) == (b.Value == nil) && a.ValueLen == b.ValueLen &&
			a.Seq == b.Seq && a.Deleted == b.Deleted
	}
	for id := uint64(0); id < 9000; id++ {
		k := kv.EncodeKey(id)
		if a, b := reused.Get(k), fresh.Get(k); !sameEntry(a, b) {
			t.Fatalf("Get(%d): reused %+v, fresh %+v", id, a, b)
		}
	}
	ri, fi := reused.Iterator(), fresh.Iterator()
	for n := 0; ; n++ {
		rok, fok := ri.Next(), fi.Next()
		if rok != fok {
			t.Fatalf("iterations differ in length at entry %d", n)
		}
		if !rok {
			break
		}
		if !sameEntry(ri.Entry(), fi.Entry()) {
			t.Fatalf("entry %d: reused %+v, fresh %+v", n, ri.Entry(), fi.Entry())
		}
	}
}

// TestReleasedStructIsReused: the next New on a Chunks takes the struct
// of the memtable released to it, emptied, its generator reseeded onto
// the stream a fresh one would draw, and a rotation cycle (New from a
// parent generator's draw, as a DB rotates, fill, Release) allocates
// nothing once the chunks are warm: not even a generator.
func TestReleasedStructIsReused(t *testing.T) {
	free := new(Chunks)
	fill := func(m *Memtable) {
		for id := uint64(0); id < 500; id++ {
			m.Put(kv.EncodeKey(id*7), nil, 64, id, false)
		}
	}
	old := New(1, free)
	fill(old)
	old.Release()
	m := New(1, free)
	if m != old {
		t.Fatal("New did not take the released memtable's struct")
	}
	if m.Len() != 0 || m.SizeBytes() != 0 || m.Get(kv.EncodeKey(7)) != nil || m.Iterator().Next() {
		t.Fatal("the reused struct is not an empty memtable")
	}
	if m.rng != *sim.NewRNG(1) {
		t.Fatal("the reused struct's generator is not reseeded")
	}
	fill(m)
	m.Release()
	rng := sim.NewRNG(1)
	if n := testing.AllocsPerRun(20, func() {
		m := New(rng.Uint64(), free)
		fill(m)
		m.Release()
	}); n != 0 {
		t.Fatalf("a warm New/fill/Release cycle allocates %v objects, want 0", n)
	}
}
