package memtable

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// fuzzChunks is the free list every FuzzMemtable iteration carves from
// and releases to, so the fuzzer also runs on recycled chunks.
var fuzzChunks Chunks

// fuzzKey is id's key: the id in the first word and its complement in
// the second, or with shared set, id/8 in the first word and the id in
// the second, so runs of eight neighbours differ only in the second
// word. Either way keys sort by id.
func fuzzKey(id uint64, shared bool) []byte {
	hi, lo := id, ^id
	if shared {
		hi, lo = id/8, id
	}
	k := binary.BigEndian.AppendUint64(make([]byte, 0, kv.KeySize), hi)
	return binary.BigEndian.AppendUint64(k, lo)
}

// checkStructure walks every level of m's skiplist: each level must be
// strictly ascending and a subsequence of the level below, no tower may
// be empty or taller than maxHeight, the head must have no successor at
// or above m.height, and m.height must equal the tallest tower (1 when
// the memtable is empty).
func checkStructure(t *testing.T, m *Memtable) {
	t.Helper()
	tallest := 1
	below := map[*node]int{} // node -> position in the level below
	for level := 0; level < maxHeight; level++ {
		if level >= m.height {
			if m.head.tower[level] != nil {
				t.Fatalf("head links a node at level %d, height %d", level, m.height)
			}
			continue
		}
		here := map[*node]int{}
		var prev *node
		last := -1
		for x := m.head.tower[level]; x != nil; x = x.tower[level] {
			if h := len(x.tower); h < 1 || h > maxHeight || h <= level {
				t.Fatalf("node %x at level %d has a tower of %d", x.entry.Key, level, h)
			} else if h > tallest {
				tallest = h
			}
			if prev != nil && kv.CompareKeys(prev.entry.Key, x.entry.Key) >= 0 {
				t.Fatalf("level %d: %x after %x", level, x.entry.Key, prev.entry.Key)
			}
			if level > 0 {
				pos, ok := below[x]
				if !ok || pos <= last {
					t.Fatalf("level %d: node %x is not in order on level %d", level, x.entry.Key, level-1)
				}
				last = pos
			}
			here[x] = len(here)
			prev = x
		}
		below = here
	}
	if m.height != tallest {
		t.Fatalf("height %d, tallest tower %d", m.height, tallest)
	}
}

// sameEntry reports whether a memtable entry equals the reference one,
// nil-ness of the value included.
func sameEntry(got *kv.Entry, want kv.Entry) bool {
	return bytes.Equal(got.Key, want.Key) && bytes.Equal(got.Value, want.Value) &&
		(got.Value == nil) == (want.Value == nil) && got.ValueLen == want.ValueLen &&
		got.Seq == want.Seq && got.Deleted == want.Deleted
}

// FuzzMemtable decodes a sequence of Puts, Gets and IteratorFrom walks
// and checks it against a map. Puts come as ascending runs, descending
// runs, single keys, tombstones and repeats of the last key (upserts);
// the first byte's low bit picks whether neighbouring keys differ in the
// first word or only in the second (fuzzKey); values are nil
// (accounting mode) or real bytes. Every Get must match the map, every walk the sorted
// map from its start key, and at the end the length, the size estimate,
// the full iteration and the skiplist's structure (checkStructure).
func FuzzMemtable(f *testing.F) {
	ascending := []byte{1, 7}
	for i := 0; i < 40; i++ {
		ascending = append(ascending, 0, byte(4*i), 31) // a load: 40 runs of 32 ascending ids
	}
	f.Add(ascending)
	f.Add([]byte{3, 5, 1, 200, 31, 2, 100, 31, 4, 0, 5, 100, 6, 90, 10, 150})
	for k := 0; k < 6; k++ {
		rng := sim.NewRNG(uint64(k))
		seed := []byte{byte(k), byte(k)}
		for i := 0; i < 300; i++ {
			seed = append(seed, byte(rng.Uint64()))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		flags, rngSeed := in.next(), in.next()
		shared := flags&1 != 0
		m := New(uint64(rngSeed), &fuzzChunks)
		defer m.Release()
		ref := map[string]kv.Entry{}
		sizeEst := func() int64 {
			var n int64
			for _, e := range ref {
				n += int64(len(e.Key)) + int64(e.ValueLen) + 32
			}
			return n
		}
		id := func(b, op int) uint64 { return uint64(b)*8 + uint64(op/32) }
		var seq uint64
		var lastKey []byte
		put := func(key []byte, b int, deleted bool) {
			seq++
			var value []byte
			valueLen := 1 + b*7%300
			if !deleted && b&1 != 0 {
				value = make([]byte, 1+b%40)
				kv.SynthValue(value, key, seq)
			}
			if deleted {
				valueLen = 0
			}
			m.Put(key, value, valueLen, seq, deleted)
			if value != nil {
				valueLen = len(value)
			}
			ref[string(key)] = kv.Entry{Key: key, Value: value, ValueLen: valueLen, Seq: seq, Deleted: deleted}
			lastKey = key
		}
		for ops := 0; len(in) > 0 && ops < 400; ops++ {
			op := in.next()
			switch op % 8 {
			case 0, 1, 2: // a run: ascending (0, 1) or descending (2)
				start, n := uint64(in.next())*8, 1+in.next()%32
				step := uint64(1 + op/8%4)
				for i := 0; i < n; i++ {
					k := start + uint64(i)*step
					if op%8 == 2 {
						k = start + uint64(n-1-i)*step
					}
					put(fuzzKey(k, shared), int(k)+i, false)
				}
			case 3: // one key
				b := in.next()
				put(fuzzKey(id(b, op), shared), b, false)
			case 4: // a tombstone
				b := in.next()
				put(fuzzKey(id(b, op), shared), b, true)
			case 5: // the last key again
				if lastKey != nil {
					put(lastKey, in.next(), op&8 != 0)
				}
			case 6: // a lookup
				key := fuzzKey(id(in.next(), op), shared)
				got := m.Get(key)
				want, ok := ref[string(key)]
				if (got != nil) != ok || ok && !sameEntry(got, want) {
					t.Fatalf("Get(%x) = %+v, want %+v (present %v)", key, got, want, ok)
				}
			case 7: // a walk of up to 16 entries from a start key
				start := fuzzKey(id(in.next(), op), shared)
				var want []string
				for k := range ref {
					if kv.CompareKeys([]byte(k), start) >= 0 {
						want = append(want, k)
					}
				}
				sort.Strings(want)
				it := m.IteratorFrom(start)
				for i := 0; i < 16; i++ {
					ok := it.Next()
					if ok != (i < len(want)) {
						t.Fatalf("IteratorFrom(%x): entry %d present %v, want %v", start, i, ok, i < len(want))
					}
					if !ok {
						break
					}
					if e := it.Entry(); !sameEntry(e, ref[want[i]]) {
						t.Fatalf("IteratorFrom(%x): entry %d = %+v, want %+v", start, i, e, ref[want[i]])
					}
				}
			}
		}
		if m.Len() != len(ref) || m.SizeBytes() != sizeEst() {
			t.Fatalf("Len %d, SizeBytes %d; want %d, %d", m.Len(), m.SizeBytes(), len(ref), sizeEst())
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		it := m.Iterator()
		for i, k := range keys {
			if !it.Next() || !sameEntry(it.Entry(), ref[k]) {
				t.Fatalf("iteration entry %d is not %x", i, k)
			}
		}
		if it.Next() {
			t.Fatalf("iteration runs past the %d entries", len(keys))
		}
		checkStructure(t, m)
	})
}

// fuzzBytes reads a fuzz input front to back, yielding zeros past its end.
type fuzzBytes []byte

func (f *fuzzBytes) next() int {
	if len(*f) == 0 {
		return 0
	}
	b := (*f)[0]
	*f = (*f)[1:]
	return int(b)
}
