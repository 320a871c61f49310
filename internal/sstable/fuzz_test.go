package sstable

import (
	"bytes"
	"encoding/binary"
	"testing"

	"ptsbench/internal/kv"
)

// buildContentBlock serializes one data block the way the unit tests
// build tables: n entries with SynthValue payloads through the content
// builder. It returns the raw bytes of the first data block.
func buildContentBlock(n, valLen int) []byte {
	b := NewBuilder(4096, DefaultBlockBytes, true, 0)
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
// mixed selects the key widths: all kv.KeySize (the stride-searched
// table), or 8, 16 and 24 bytes by id (the per-key byte path). Seeded
// from the unit-test corpus shapes.
func FuzzTableLookup(f *testing.F) {
	f.Add(uint64(1), uint16(100), uint64(50), false)
	f.Add(uint64(7), uint16(1), uint64(0), false)
	f.Add(uint64(9), uint16(4000), uint64(12345), false)
	f.Add(uint64(1), uint16(100), uint64(50), true)
	f.Add(uint64(5), uint16(3), uint64(7), true)
	f.Add(uint64(9), uint16(4000), uint64(12345), true)
	f.Fuzz(func(t *testing.T, seed uint64, n uint16, probe uint64, mixed bool) {
		if n == 0 {
			return
		}
		// keyW is id's key at width w; the first word is the id, so keys
		// sort by id whatever their widths.
		keyW := func(id uint64, w int) []byte {
			k := binary.BigEndian.AppendUint64(make([]byte, 0, 24), id)
			if w > 8 {
				k = binary.BigEndian.AppendUint64(k, ^id)
			}
			if w > 16 {
				k = binary.BigEndian.AppendUint64(k, id)
			}
			return k
		}
		width := func(id uint64) int {
			if !mixed {
				return kv.KeySize
			}
			return 8 * int(1+id%3)
		}
		// Deterministic, strictly increasing key ids derived from seed.
		b := NewBuilder(4096, 4096, false, int(n))
		ids := make([]uint64, 0, n)
		seqOf := map[string]uint64{}
		allFixed := true
		id := seed % 97
		for i := 0; i < int(n); i++ {
			ids = append(ids, id)
			k := keyW(id, width(id))
			seqOf[string(k)] = uint64(i)
			allFixed = allFixed && len(k) == kv.KeySize
			if err := b.Add(&kv.Entry{Key: k, ValueLen: int(id % 300), Seq: uint64(i)}); err != nil {
				t.Fatal(err)
			}
			id += 1 + (id^seed)%13
		}
		fs, _ := newTestFS(t, false)
		tab := installImage(t, fs, "sst", b.Finish(1))
		if tab.fixed != allFixed {
			t.Fatalf("fixed = %v, want %v", tab.fixed, allFixed)
		}

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
		for _, w := range []int{8, 16, 24} {
			lookup(keyW(probe, w))
		}
		for pos, want := range ids {
			// The live key, the same id at the other widths, and the
			// next id.
			for _, w := range []int{8, 16, 24} {
				lookup(keyW(want, w))
			}
			lookup(keyW(want+1, width(want+1)))
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
	})
}
