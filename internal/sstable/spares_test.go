package sstable

import (
	"bytes"
	"fmt"
	"testing"

	"ptsbench/internal/kv"
)

// recycleEntries returns n sorted entries with keys id*stride+off, value
// lengths varying by id and every seventh entry a tombstone.
func recycleEntries(n int, stride, off uint64, content bool) []kv.Entry {
	entries := make([]kv.Entry, n)
	for i := range entries {
		id := uint64(i)*stride + off
		e := kv.Entry{Key: kv.EncodeKey(id), ValueLen: 20 + int(id%300), Seq: 5000 + id}
		if id%7 == 0 {
			e.ValueLen, e.Deleted = 0, true
		} else if content {
			e.Value = make([]byte, e.ValueLen)
			kv.SynthValue(e.Value, e.Key, e.Seq)
		}
		entries[i] = e
	}
	return entries
}

// buildWith lays out entries with a builder drawing on spares.
func buildWith(t *testing.T, spares *Spares, content bool, entries []kv.Entry) *FileImage {
	t.Helper()
	b := NewBuilder(4096, DefaultBlockBytes, content, len(entries), spares)
	for i := range entries {
		if err := b.Add(&entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Finish(7)
}

// base is the address of the first element of s's array.
func base[T any](s []T) *T { return &s[:1][0] }

// spareBases returns the base of every array spares retains.
func spareBases(s *Spares) map[any]bool {
	m := map[any]bool{}
	addBases(m, s.keyArena, s.dels, s.bloom, s.valArena, s.data)
	addBases(m, s.keyOffsets, s.vlens, s.valOffsets)
	addBases(m, s.seqs)
	addBases(m, s.blocks)
	return m
}

func addBases[T any](m map[any]bool, lists ...freeList[T]) {
	for _, l := range lists {
		for _, a := range l.arrays {
			m[base(a)] = true
		}
	}
}

// TestRecycledArraysMatchFresh releases a table's side-index arrays (its
// lazily built Bloom bits included) and builds the next table from them:
// the image must equal a freshly built one byte for byte, and every
// lookup, Bloom bit and iterated entry must agree.
func TestRecycledArraysMatchFresh(t *testing.T) {
	for _, content := range []bool{false, true} {
		t.Run(fmt.Sprintf("content=%v", content), func(t *testing.T) {
			fs, _ := newTestFS(t, content)
			spares := new(Spares)
			old := installImage(t, fs, "sst-old", buildWith(t, spares, content, recycleEntries(3000, 2, 0, content)))
			get(old, kv.EncodeKey(1)) // builds the lazy filter in accounting mode
			old.Release()
			released := spareBases(spares)

			entries := recycleEntries(2000, 3, 1, content)
			img := buildWith(t, spares, content, entries)
			want := buildWith(t, new(Spares), content, entries)
			if img.Pages != want.Pages || img.SizeBytes != want.SizeBytes || !bytes.Equal(img.Data, want.Data) {
				t.Fatalf("recycled image (%d pages, %d B) differs from fresh (%d pages, %d B)",
					img.Pages, img.SizeBytes, want.Pages, want.SizeBytes)
			}
			got := installImage(t, fs, "sst-recycled", img)
			ref := installImage(t, fs, "sst-fresh", want)
			for k := uint64(0); k < 6200; k++ {
				_, ge, gok, gerr := get(got, kv.EncodeKey(k))
				_, re, rok, rerr := get(ref, kv.EncodeKey(k))
				if gerr != nil || rerr != nil {
					t.Fatal(gerr, rerr)
				}
				if gok != rok || !sameEntry(&ge, &re) {
					t.Fatalf("key %d: recycled (%v, %+v), fresh (%v, %+v)", k, gok, ge, rok, re)
				}
			}
			if !bytes.Equal(got.bloom.bits, ref.bloom.bits) {
				t.Fatal("a filter built on released bits differs from a fresh one")
			}
			cols := []any{base(got.keyArena), base(got.keyOffsets), base(got.seqs),
				base(got.vlens), base(got.dels), base(got.blocks), base(got.bloom.bits)}
			if content {
				cols = append(cols, base(got.valArena), base(got.valOffsets))
			}
			for i, c := range cols {
				if !released[c] {
					t.Fatalf("column %d was allocated while released arrays were free", i)
				}
			}
			checkSameIteration(t, got, ref)

			if !content {
				// The bulk path of deep compactions draws on the same
				// spares: release the recycled table and append the fresh
				// one's entries through them.
				got.Release()
				b := NewBuilder(4096, DefaultBlockBytes, false, ref.NumEntries(), spares)
				if next, err := b.AppendTableRange(ref, 0, ref.NumEntries(), false, 1<<62); err != nil || next != ref.NumEntries() {
					t.Fatalf("AppendTableRange = %d, %v", next, err)
				}
				checkSameIteration(t, installImage(t, fs, "sst-appended", b.Finish(7)), ref)
			}
		})
	}
}

func sameEntry(a, b *kv.Entry) bool {
	return bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value) &&
		a.ValueLen == b.ValueLen && a.Seq == b.Seq && a.Deleted == b.Deleted
}

func checkSameIteration(t *testing.T, got, ref *Table) {
	t.Helper()
	gi, ri := got.Iterator(), ref.Iterator()
	for n := 0; ; n++ {
		gok, rok := gi.Next(), ri.Next()
		if gok != rok {
			t.Fatalf("iterations differ in length at entry %d", n)
		}
		if !gok {
			return
		}
		if !sameEntry(gi.Entry(), ri.Entry()) {
			t.Fatalf("entry %d: got %+v, want %+v", n, gi.Entry(), ri.Entry())
		}
	}
}

// TestAppendTableRangeRefusesContent: the bulk append copies no values,
// so a content-mode table or builder is an error that appends nothing.
func TestAppendTableRangeRefusesContent(t *testing.T) {
	fs, _ := newTestFS(t, true)
	tbl := buildTable(t, fs, "sst-content", true, synthEntries(10, 8, true))
	for _, content := range []bool{false, true} {
		b := NewBuilder(4096, DefaultBlockBytes, content, 0, new(Spares))
		next, err := b.AppendTableRange(tbl, 2, 8, false, 1<<62)
		if err == nil || next != 2 || b.NumEntries() != 0 {
			t.Fatalf("content builder=%v: AppendTableRange = %d, %v with %d entries appended", content, next, err, b.NumEntries())
		}
	}
}
