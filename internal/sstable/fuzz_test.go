package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"ptsbench/internal/kv"
)

// buildContentBlock serializes one data block the way the unit tests
// build tables: n entries with SynthValue payloads through the content
// builder. It returns the raw bytes of the first data block.
func buildContentBlock(n, valLen int) []byte {
	b := NewBuilder(4096, DefaultBlockBytes, true, 0, new(Spares))
	val := make([]byte, valLen)
	for i := 0; i < n; i++ {
		k := kv.EncodeKey(uint64(i))
		kv.SynthValue(val, k, uint64(i))
		if err := b.Add(&kv.Entry{Key: k, Value: val}); err != nil {
			panic(err)
		}
	}
	img := b.Finish(1)
	return img.Data
}

// FuzzBlockEntryValue feeds arbitrary block bytes to the data-block
// value walk that sits under every content-mode Get. Seeds come from
// the same block shapes the unit tests build (small/large values,
// many/few entries), so the fuzzer starts from well-formed corpora and
// mutates toward the corruption edges. The walk must never panic: it
// either returns the value or a corruption error.
func FuzzBlockEntryValue(f *testing.F) {
	f.Add(buildContentBlock(16, 32), 3)
	f.Add(buildContentBlock(100, 8), 99)
	f.Add(buildContentBlock(1, 512), 0)
	f.Add([]byte{}, 0)
	f.Add([]byte{0, 1, 2, 3}, 1)
	f.Fuzz(func(t *testing.T, block []byte, idx int) {
		if idx < 0 || idx > 1<<16 {
			return // the walk is linear in idx; bound the work, not the input
		}
		v, err := blockEntryValue(block, idx)
		if err == nil && v == nil {
			t.Fatal("nil value without error")
		}
	})
}

// FuzzTableLookup drives the whole table lookup surface — binary search,
// Bloom filter, block mapping, range placement — over tables built from
// fuzz-chosen key sets, and cross-checks every answer against the input.
// tombs makes every tombs-th entry a tombstone (0: none), and vary gives
// the live entries value lengths by id instead of one length, so the
// side index's derived columns are held or not. An AppendTableRange copy
// of the table, in runs the tombstones cut under drop, must read back
// every entry's key, seq, value length and tombstone as built. Seeded
// from the unit-test corpus shapes.
func FuzzTableLookup(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint64(50), uint8(0), false)
	f.Add(uint64(7), uint16(1), uint64(0), uint8(1), false)
	f.Add(uint64(9), uint16(4000), uint64(12345), uint8(7), true)
	f.Add(uint64(1), uint16(100), uint64(50), uint8(0), true)
	f.Add(uint64(5), uint16(3), uint64(7), uint8(2), false)
	f.Add(uint64(9), uint16(4000), uint64(12345), uint8(13), true)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, probe uint64, tombs uint8, vary bool) {
		if n == 0 {
			return
		}
		// key is id's key, with lo added to its second word: the first
		// word is the id, so keys sort by id.
		key := func(id, lo uint64) []byte {
			k := binary.BigEndian.AppendUint64(make([]byte, 0, kv.KeySize), id)
			return binary.BigEndian.AppendUint64(k, ^id+lo)
		}
		// Deterministic, strictly increasing key ids derived from seed.
		b := NewBuilder(4096, 4096, false, int(n), new(Spares))
		ids := make([]uint64, 0, n)
		entries := make([]kv.Entry, 0, n)
		seqOf := map[string]uint64{}
		id := seed % 97
		for i := 0; i < int(n); i++ {
			ids = append(ids, id)
			k := key(id, 0)
			seqOf[string(k)] = uint64(i)
			e := kv.Entry{Key: k, ValueLen: 120, Seq: uint64(i)}
			if vary {
				e.ValueLen = int(id % 300)
			}
			if tombs > 0 && i%int(tombs) == 0 {
				e.ValueLen, e.Deleted = 0, true
			}
			if err := b.Add(&e); err != nil {
				t.Fatal(err)
			}
			entries = append(entries, e)
			id += 1 + (id^seed)%13
		}
		fs, _ := newTestFS(t, false)
		tab := installImage(t, fs, "sst", b.Finish(1))

		// lookup checks Get, search and Position for one key.
		lookup := func(k []byte) {
			p := NewProbe(k)
			_, e, found, err := tab.Get(0, &p)
			if err != nil {
				t.Fatal(err)
			}
			want, ok := seqOf[string(k)]
			if found != ok || found && (e.Seq != want || !bytes.Equal(e.Key, k)) {
				t.Fatalf("Get(%x) = %v seq %d, want %v seq %d", k, found, e.Seq, ok, want)
			}
			i := tab.search(&p)
			if i < 0 || i > tab.NumEntries() {
				t.Fatalf("search out of range: %d", i)
			}
			if i < tab.NumEntries() && kv.CompareKeys(tab.KeyAt(i), k) < 0 {
				t.Fatal("search landed before probe")
			}
			if i > 0 && kv.CompareKeys(tab.KeyAt(i-1), k) >= 0 {
				t.Fatal("search skipped a candidate")
			}
			wantPos := 0
			if kv.CompareKeys(k, tab.Smallest()) < 0 {
				wantPos = -1
			} else if kv.CompareKeys(k, tab.Largest()) > 0 {
				wantPos = 1
			}
			if got := tab.Position(&p); sign(got) != wantPos {
				t.Fatalf("Position(%x) = %d, want sign %d", k, got, wantPos)
			}
		}
		lookup(key(probe, 0))
		for pos, want := range ids {
			// The live key, keys one below and above it in the second
			// word, and the next id.
			for _, lo := range []uint64{0, ^uint64(0), 1} {
				lookup(key(want, lo))
			}
			lookup(key(want+1, 0))
			// Every entry maps into a valid block that covers it.
			bi := tab.blockOf(pos)
			if bi < 0 || bi >= len(tab.blocks) {
				t.Fatalf("blockOf(%d) = %d out of range", pos, bi)
			}
			if int(tab.blocks[bi].firstEntry) > pos {
				t.Fatalf("blockOf(%d) = %d starts after the entry", pos, bi)
			}
			if bi+1 < len(tab.blocks) && int(tab.blocks[bi+1].firstEntry) <= pos {
				t.Fatalf("blockOf(%d) = %d ends before the entry", pos, bi)
			}
		}

		// Every entry reads back as built, from the table and from its
		// copies through AppendTableRange: whole, and with tombstones
		// dropped in runs of up to 5 entries.
		readBack := func(what string, tab *Table, want []kv.Entry) {
			if tab.NumEntries() != len(want) {
				t.Fatalf("%s: %d entries, want %d", what, tab.NumEntries(), len(want))
			}
			for i := range want {
				if e := tab.entryAt(i); !sameEntry(&e, &want[i]) {
					t.Fatalf("%s: entry %d reads back %+v, built %+v", what, i, e, want[i])
				}
			}
		}
		readBack("table", tab, entries)
		for _, drop := range []bool{false, true} {
			cp := NewBuilder(4096, 4096, false, 0, new(Spares))
			var want []kv.Entry
			for lo := 0; lo < len(entries); {
				hi := min(lo+1+int(seed>>uint(lo%60))%5, len(entries))
				if _, err := cp.AppendTableRange(tab, lo, hi, drop, 1<<62); err != nil {
					t.Fatal(err)
				}
				for _, e := range entries[lo:hi] {
					if !drop || !e.Deleted {
						want = append(want, e)
					}
				}
				lo = hi
			}
			readBack(fmt.Sprintf("AppendTableRange copy (drop=%v)", drop), cp.Finish(2).table, want)
		}
	})
}
