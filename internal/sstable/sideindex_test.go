package sstable

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ptsbench/internal/kv"
)

// sideIndexBytes is what t's per-entry side-index columns hold, in bytes.
func sideIndexBytes(t *Table) int {
	return len(t.keyArena) + 8*len(t.seqs) + 4*len(t.vlens) + len(t.dels)
}

// TestSideIndexBytesPerEntry: a table of the benchmark's shape — 16-byte
// keys, 4000-byte values, no tombstones — holds only its key and seq
// columns, 24 bytes an entry, whether built by Add or appended by
// AppendTableRange from two such tables in alternating runs. One other
// value length materializes exactly the column that entry needs, by
// either path, and every entry reads back as it was built. So does a value length that differs only between the two
// sources, each holding one length. One tombstone, its value length 0,
// materializes the tombstone marks and the value lengths.
func TestSideIndexBytesPerEntry(t *testing.T) {
	const n = 10000
	for _, c := range []struct {
		name       string
		odd        func(i int, e *kv.Entry) // applied to every entry i
		vlens, del bool                     // the columns it must materialize
	}{
		{"uniform", func(int, *kv.Entry) {}, false, false},
		{"tombstone", func(i int, e *kv.Entry) {
			if i == n/2 {
				e.ValueLen, e.Deleted = 0, true
			}
		}, true, true},
		{"vlen", func(i int, e *kv.Entry) {
			if i == n/2 {
				e.ValueLen = 100
			}
		}, true, false},
		{"vlen-by-source", func(i int, e *kv.Entry) {
			if i/8%2 == 1 {
				e.ValueLen = 100
			}
		}, true, false},
	} {
		entries := make([]kv.Entry, n)
		for i := range entries {
			k := binary.BigEndian.AppendUint64(nil, uint64(i))
			entries[i] = kv.Entry{Key: append(k, 0, 0, 0, 0, 0, 0, 0, 1), ValueLen: 4000, Seq: uint64(i) + 7}
			c.odd(i, &entries[i])
		}

		add := NewBuilder(4096, DefaultBlockBytes, false, n, new(Spares))
		for i := range entries {
			if err := add.Add(&entries[i]); err != nil {
				t.Fatal(err)
			}
		}
		// Two sources, runs of 8 entries dealt to them in turn, merged
		// back in runs.
		var halves [2][]kv.Entry
		for i := range entries {
			halves[i/8%2] = append(halves[i/8%2], entries[i])
		}
		var src [2]*Table
		for h := range src {
			b := NewBuilder(4096, DefaultBlockBytes, false, len(halves[h]), new(Spares))
			for i := range halves[h] {
				if err := b.Add(&halves[h][i]); err != nil {
					t.Fatal(err)
				}
			}
			src[h] = b.Finish(uint64(h + 1)).table
		}
		bulk := NewBuilder(4096, DefaultBlockBytes, false, n, new(Spares))
		for lo := 0; lo < n/2; lo += 8 {
			for h := range src {
				if _, err := bulk.AppendTableRange(src[h], lo, min(lo+8, src[h].NumEntries()), false, 1<<62); err != nil {
					t.Fatal(err)
				}
			}
		}

		for _, tb := range []struct {
			path string
			t    *Table
		}{{"Add", add.Finish(9).table}, {"AppendTableRange", bulk.Finish(9).table}} {
			what := fmt.Sprintf("%s by %s", c.name, tb.path)
			tbl := tb.t
			if got := [2]bool{tbl.vlens != nil, tbl.dels != nil}; got != [2]bool{c.vlens, c.del} {
				t.Errorf("%s: holds value lengths, tombstone marks = %v, want %v", what, got, [2]bool{c.vlens, c.del})
			}
			if tbl.NumEntries() != n {
				t.Fatalf("%s: %d entries, want %d", what, tbl.NumEntries(), n)
			}
			for i := range entries {
				if e := tbl.entryAt(i); !sameEntry(&e, &entries[i]) {
					t.Fatalf("%s: entry %d reads back %+v, built %+v", what, i, e, entries[i])
				}
			}
			perEntry := float64(sideIndexBytes(tbl)) / n
			t.Logf("%s: %.2f side-index bytes per entry", what, perEntry)
			if c.name == "uniform" && perEntry != kv.KeySize+8 {
				t.Errorf("%s: %.2f side-index bytes per entry, want %d (key and seq)", what, perEntry, kv.KeySize+8)
			}
		}
	}
}
