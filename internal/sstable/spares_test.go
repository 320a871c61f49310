package sstable

import (
	"bytes"
	"fmt"
	"slices"
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

// columns returns the base of each of t's side-index arrays it holds
// (vlens and dels only when materialized), its Bloom bits
// included, and in content mode its value arena and offsets.
func columns(t *Table, content bool) []any {
	cols := []any{base(t.keyArena), base(t.seqs), base(t.blocks), base(t.bloom.bits)}
	if t.vlens != nil {
		cols = append(cols, base(t.vlens))
	}
	if t.dels != nil {
		cols = append(cols, base(t.dels))
	}
	if content {
		cols = append(cols, base(t.valArena), base(t.valOffsets))
	}
	return cols
}

// TestRecycledArraysMatchFresh releases a table's side-index arrays (its
// lazily built Bloom bits included) and builds the next table from them:
// the image must equal a freshly built one byte for byte, and every
// lookup, Bloom bit and iterated entry must agree. A table of the same
// size classes built after a release takes every column from the
// released table, none from the heap.
func TestRecycledArraysMatchFresh(t *testing.T) {
	for _, content := range []bool{false, true} {
		t.Run(fmt.Sprintf("content=%v", content), func(t *testing.T) {
			fs, _ := newTestFS(t, content)
			spares := new(Spares)
			old := installImage(t, fs, "sst-old", buildWith(t, spares, content, recycleEntries(3000, 2, 0, content)))
			get(old, kv.EncodeKey(1)) // builds the lazy filter in accounting mode
			old.Release()

			entries := recycleEntries(2000, 3, 1, content)
			img := buildWith(t, spares, content, entries)
			want := buildWith(t, new(Spares), content, entries)
			if img.Pages != want.Pages || img.table.sizeBytes != want.table.sizeBytes || !bytes.Equal(img.Data, want.Data) {
				t.Fatalf("recycled image (%d pages, %d B) differs from fresh (%d pages, %d B)",
					img.Pages, img.table.sizeBytes, want.Pages, want.table.sizeBytes)
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
			checkSameIteration(t, got, ref)

			// The compaction merge's bulk path draws on the same spares:
			// release the recycled table and append the fresh one's
			// entries through them. The appended table holds got's
			// entries, so each of its columns is of the class of got's,
			// which its pool hands out first.
			released := columns(got, content)
			got.Release()
			b := NewBuilder(4096, DefaultBlockBytes, content, ref.NumEntries(), spares)
			if next, err := b.AppendTableRange(ref, 0, ref.NumEntries(), false, 1<<62); err != nil || next != ref.NumEntries() {
				t.Fatalf("AppendTableRange = %d, %v", next, err)
			}
			appended := installImage(t, fs, "sst-appended", b.Finish(7))
			get(appended, kv.EncodeKey(1)) // builds the lazy filter in accounting mode
			for i, c := range columns(appended, content) {
				if c != released[i] {
					t.Fatalf("column %d was allocated while the released arrays of its class were free", i)
				}
			}
			checkSameIteration(t, appended, ref)
		})
	}
}

func sameEntry(a, b *kv.Entry) bool {
	return bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value) &&
		a.ValueLen == b.ValueLen && a.Seq == b.Seq && a.Deleted == b.Deleted
}

func checkSameIteration(t *testing.T, got, ref *Table) {
	t.Helper()
	gi, ri := got.IteratorFrom(nil), ref.IteratorFrom(nil)
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

// TestAppendTableRangeMatchesAdd: appending ranges of a table in bulk
// builds the image a per-entry Add of the same entries builds — blocks,
// sizes, the side index and, in content mode, bytes — with tombstones
// skipped under drop and the walk stopping at the first entry that
// brings the data bytes to the limit. A table of the other mode is
// refused, and nothing is appended.
func TestAppendTableRangeMatchesAdd(t *testing.T) {
	for _, content := range []bool{false, true} {
		fs, _ := newTestFS(t, content)
		entries := recycleEntries(600, 3, 1, content)
		tbl := buildTable(t, fs, fmt.Sprintf("sst-src-%v", content), content, entries)
		// limitAt is the data bytes once entries [0, i] are added under
		// drop: a limit of it stops a walk from 0 right after entry i.
		limitAt := func(i int) int64 {
			b := NewBuilder(4096, 4<<10, content, 0, new(Spares))
			for k := 0; k <= i; k++ {
				if !entries[k].Deleted {
					if err := b.Add(&entries[k]); err != nil {
						t.Fatal(err)
					}
				}
			}
			return b.EstimatedBytes()
		}
		for ci, c := range []struct {
			cuts  []int // the ranges [cuts[k], cuts[k+1]) are appended in turn
			drop  bool
			limit int64
		}{
			{[]int{0, 600}, false, 1 << 62},
			{[]int{0, 600}, true, 1 << 62},
			{[]int{17, 18, 19, 250, 251, 599}, true, 1 << 62},
			{[]int{0, 1, 300, 600}, false, 20 << 10},
			{[]int{5, 400, 600}, true, 50 << 10},
			// Tombstones at 2, 9, 16 and 23 split [0, 30) into kept runs;
			// the limit falls inside the second run, then at its end.
			{[]int{0, 30}, true, limitAt(4)},
			{[]int{0, 30}, true, limitAt(8)},
			// One entry.
			{[]int{4, 5}, false, 1 << 62},
		} {
			bulk := NewBuilder(4096, 4<<10, content, 0, new(Spares))
			each := NewBuilder(4096, 4<<10, content, 0, new(Spares))
			for k := 0; k+1 < len(c.cuts); k++ {
				lo, hi := c.cuts[k], c.cuts[k+1]
				next, err := bulk.AppendTableRange(tbl, lo, hi, c.drop, c.limit)
				if err != nil {
					t.Fatal(err)
				}
				want := hi
				for i := lo; i < hi; i++ {
					if c.drop && entries[i].Deleted {
						continue
					}
					if err := each.Add(&entries[i]); err != nil {
						t.Fatal(err)
					}
					if each.EstimatedBytes() >= c.limit {
						want = i + 1
						break
					}
				}
				if next != want {
					t.Fatalf("content=%v case %d: AppendTableRange(%d, %d) = %d, want %d", content, ci, lo, hi, next, want)
				}
			}
			gotImg, wantImg := bulk.Finish(9), each.Finish(9)
			if gotImg.Pages != wantImg.Pages || gotImg.table.sizeBytes != wantImg.table.sizeBytes || !bytes.Equal(gotImg.Data, wantImg.Data) {
				t.Fatalf("content=%v case %d: bulk image (%d pages, %d B) differs from per-entry (%d pages, %d B)",
					content, ci, gotImg.Pages, gotImg.table.sizeBytes, wantImg.Pages, wantImg.table.sizeBytes)
			}
			got, want := gotImg.table, wantImg.table
			if !slices.Equal(got.blocks, want.blocks) || got.minHi != want.minHi || got.minLo != want.minLo ||
				got.maxHi != want.maxHi || got.maxLo != want.maxLo {
				t.Fatalf("content=%v case %d: bulk side index (blocks %+v) differs from per-entry (blocks %+v)",
					content, ci, got.blocks, want.blocks)
			}
			name := fmt.Sprintf("sst-%v-%d", content, ci)
			checkSameIteration(t, installImage(t, fs, name+"-bulk", gotImg), installImage(t, fs, name+"-each", wantImg))
		}
		other := buildTable(t, fs, fmt.Sprintf("sst-other-%v", content), !content, recycleEntries(10, 3, 1, !content))
		b := NewBuilder(4096, DefaultBlockBytes, content, 0, new(Spares))
		if next, err := b.AppendTableRange(other, 2, 8, false, 1<<62); err == nil || next != 2 || b.NumEntries() != 0 {
			t.Fatalf("content builder=%v: AppendTableRange of the other mode = %d, %v with %d entries appended", content, next, err, b.NumEntries())
		}
	}
}

// TestReleasedStructsAreReused: Finish hands its builder back and the
// next NewBuilder takes it, a released table's struct is the next
// Finish's table, and once warm a build/release cycle of a table of
// the same size allocates nothing at all. A table opened from a file
// has no Spares, so its struct goes back to no one.
func TestReleasedStructsAreReused(t *testing.T) {
	spares := new(Spares)
	entries := recycleEntries(500, 2, 0, false)
	cycle := func() (*Builder, *Table) {
		b := NewBuilder(4096, DefaultBlockBytes, false, len(entries), spares)
		for i := range entries {
			if err := b.Add(&entries[i]); err != nil {
				t.Fatal(err)
			}
		}
		tbl := b.Finish(7).table
		tbl.mayContain(&Probe{}) // builds the lazy filter, as a Get would
		tbl.Release()
		return b, tbl
	}
	b1, t1 := cycle()
	if b2, t2 := cycle(); b2 != b1 || t2 != t1 {
		t.Fatal("a finished builder or a released table was not reused")
	}
	if n := testing.AllocsPerRun(50, func() { cycle() }); n != 0 {
		t.Fatalf("a warm build/release cycle allocates %v objects, want 0", n)
	}

	fs, _ := newTestFS(t, true)
	opened := buildTable(t, fs, "sst-opened", true, recycleEntries(50, 2, 0, true))
	f, err := fs.Open("sst-opened")
	if err != nil {
		t.Fatal(err)
	}
	if opened, _, err = OpenFromFile(f, fs.PageSize(), 0); err != nil {
		t.Fatal(err)
	}
	opened.Release()
	if opened.ID != 1 || opened.numEntries != 50 || opened.keyArena != nil {
		t.Fatalf("a released file-opened table keeps %+v, want only its ID and entry count", opened)
	}
}
