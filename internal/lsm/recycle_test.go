package lsm

import (
	"bytes"
	"fmt"
	"testing"

	"ptsbench/internal/kv"
	"ptsbench/internal/memtable"
	"ptsbench/internal/sim"
	"ptsbench/internal/sstable"
)

// TestHeldValuesOutliveTheirSources holds content-mode values returned by
// Get and Scan while later puts rotate, flush and compact away the
// memtables and tables they were read from, then checks every held value
// byte for byte: what Get and Scan return belongs to the caller.
func TestHeldValuesOutliveTheirSources(t *testing.T) {
	db, _, _ := testEnv(t, 32, true, func(c *Config) {
		c.MemtableBytes = 8 << 10
		c.BaseLevelBytes = 32 << 10
		c.TargetFileBytes = 8 << 10
	})
	const keys = 400
	value := func(id, gen uint64) []byte {
		v := make([]byte, 48+id%40)
		kv.SynthValue(v, kv.EncodeKey(id), gen)
		return v
	}
	var now sim.Duration
	var err error
	putGen := func(gen uint64) {
		for id := uint64(0); id < keys; id++ {
			if now, err = db.Put(now, kv.EncodeKey(id), value(id, gen), 0); err != nil {
				t.Fatal(err)
			}
		}
	}

	type held struct {
		id, gen uint64
		v       []byte
	}
	var hold []held
	for gen := uint64(0); gen < 8; gen++ {
		putGen(gen)
		// Keys written last sit in the active memtable, earlier ones in
		// immutable memtables and tables.
		for _, id := range []uint64{keys - 1, keys - 7, keys / 2, 3} {
			var v []byte
			var found bool
			if now, v, found, err = db.Get(now, kv.EncodeKey(id)); err != nil || !found {
				t.Fatalf("gen %d key %d: found=%v err=%v", gen, id, found, err)
			}
			hold = append(hold, held{id, gen, v})
		}
		var ents []kv.Entry
		if now, ents, err = db.Scan(now, kv.EncodeKey(keys-60), 60); err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			id, err := kv.DecodeKey(e.Key)
			if err != nil {
				t.Fatal(err)
			}
			hold = append(hold, held{id, gen, e.Value})
		}
	}
	if io := db.IO(); io.Flushes < 8 || io.Compactions < 4 {
		t.Fatalf("want rotations, flushes and compactions under the held values: %+v", io)
	}
	for i, h := range hold {
		if want := value(h.id, h.gen); !bytes.Equal(h.v, want) {
			t.Fatalf("held value %d (key %d, gen %d) changed:\n got %x\nwant %x", i, h.id, h.gen, h.v, want)
		}
	}
}

// TestRecycledTablesMatchFresh drives two DBs through one op log of
// puts, overwrites and deletes over 16-byte keys, in accounting and
// content mode. One recycles as it always does. The other, the fresh
// DB, has every recycler emptied (memtable chunks and structs,
// side-index arrays, Builder and Table structs, jobs and immutables)
// after each op and whenever one of its workers asks for
// work, which is after every job it finishes: its tables are built
// into fresh structs and arrays (a Builder is still reused within one
// job, from one output file to the next). Every 64 ops each level must
// hold the same tables, entry for entry, with the same sizes, and in
// content mode the same file image, and both DBs must be at the same
// virtual time. The recycled DB must have run at least 20 compactions
// and built tables into the structs of tables it had released; the
// fresh DB must never have.
func TestRecycledTablesMatchFresh(t *testing.T) {
	checkRecycledTablesMatchFresh(t, kv.EncodeKey)
}

// checkRecycledTablesMatchFresh runs TestRecycledTablesMatchFresh's op
// log with id i written under key(i).
func checkRecycledTablesMatchFresh(t *testing.T, key func(uint64) []byte) {
	for _, content := range []bool{false, true} {
		t.Run(fmt.Sprintf("content=%v", content), func(t *testing.T) {
			db, dev := mergeEnv(t, content)
			fresh, freshDev := mergeEnv(t, content)
			empty := func() {
				fresh.chunks = memtable.Chunks{}
				fresh.spares = sstable.Spares{}
				fresh.compactions, fresh.flushes, fresh.imms = nil, nil, nil
			}
			fresh.flushW.SetIdlePuller(func() sim.Job { empty(); return nil })
			fresh.compactW.SetIdlePuller(func() sim.Job { empty(); return fresh.pullL0Compaction() })
			fresh.compactWD.SetIdlePuller(func() sim.Job { empty(); return fresh.pullDeepCompaction() })
			// reuses counts the tables of a DB found in a struct that
			// earlier held a table of another ID.
			reuses := func(d *DB, ids map[*sstable.Table]uint64) (n int) {
				for _, level := range d.levels {
					for _, tbl := range level {
						if id, ok := ids[tbl]; ok && id != tbl.ID {
							n++
						}
						ids[tbl] = tbl.ID
					}
				}
				return n
			}
			ids, freshIDs := map[*sstable.Table]uint64{}, map[*sstable.Table]uint64{}
			reused, freshReused := 0, 0
			rng := sim.NewRNG(7)
			var now, freshNow sim.Duration
			for op := 1; op <= 8192; op++ {
				id := rng.Uint64n(3000)
				key := key(id)
				del := rng.Intn(100) < 15
				vlen := 40 + rng.Intn(160)
				var v []byte
				if content && !del {
					v = make([]byte, vlen)
					kv.SynthValue(v, key, uint64(op))
				}
				var err, freshErr error
				if del {
					now, err = db.Delete(now, key)
					freshNow, freshErr = fresh.Delete(freshNow, key)
				} else {
					now, err = db.Put(now, key, v, vlen)
					freshNow, freshErr = fresh.Put(freshNow, key, v, vlen)
				}
				if err != nil || freshErr != nil {
					t.Fatalf("op %d: %v, fresh %v", op, err, freshErr)
				}
				empty()
				reused += reuses(db, ids)
				freshReused += reuses(fresh, freshIDs)
				if op%64 != 0 {
					continue
				}
				if now != freshNow {
					t.Fatalf("op %d: recycled DB at %v, fresh at %v", op, now, freshNow)
				}
				for li := range db.levels {
					got, want := db.levels[li], fresh.levels[li]
					if len(got) != len(want) {
						t.Fatalf("op %d L%d: %d tables, fresh %d", op, li, len(got), len(want))
					}
					for i, g := range got {
						sameTable(t, g, want[i])
						if content && !bytes.Equal(tableDigest(t, db, dev, g), tableDigest(t, fresh, freshDev, want[i])) {
							t.Fatalf("op %d L%d: %s's file image differs from the fresh DB's", op, li, g.FileName())
						}
					}
				}
			}
			if c := db.IO().Compactions; c < 20 || reused == 0 || freshReused != 0 {
				t.Fatalf("%d compactions, %d tables in a reused struct, %d in the fresh DB: want >= 20, some and none",
					c, reused, freshReused)
			}
		})
	}
}

// sameTable fails unless two tables have the same name, sizes and
// entries.
func sameTable(t *testing.T, got, want *sstable.Table) {
	t.Helper()
	if got.FileName() != want.FileName() || got.SizeBytes() != want.SizeBytes() ||
		got.FilePages() != want.FilePages() || got.NumEntries() != want.NumEntries() {
		t.Fatalf("%s: %d B, %d pages, %d entries; fresh %s: %d B, %d pages, %d entries",
			got.FileName(), got.SizeBytes(), got.FilePages(), got.NumEntries(),
			want.FileName(), want.SizeBytes(), want.FilePages(), want.NumEntries())
	}
	gi, wi := got.IteratorFrom(nil), want.IteratorFrom(nil)
	for n := 0; gi.Next() && wi.Next(); n++ {
		g, w := gi.Entry(), wi.Entry()
		if !bytes.Equal(g.Key, w.Key) || !bytes.Equal(g.Value, w.Value) || g.ValueLen != w.ValueLen ||
			g.Seq != w.Seq || g.Deleted != w.Deleted {
			t.Fatalf("%s entry %d: %+v, fresh %+v", got.FileName(), n, *g, *w)
		}
	}
}

// TestSSTFileName pins the sst-%06d names recovery parses back, and the
// one allocation that builds one: the string.
func TestSSTFileName(t *testing.T) {
	for _, id := range []uint64{0, 7, 999999, 1000000, 1 << 40} {
		if got, want := sstFileName(id), fmt.Sprintf("sst-%06d", id); got != want {
			t.Fatalf("sstFileName(%d) = %q, want %q", id, got, want)
		}
	}
	var name string
	if n := testing.AllocsPerRun(100, func() { name = sstFileName(123) }); n != 1 || name != "sst-000123" {
		t.Fatalf("sstFileName allocates %v objects (%q), want 1", n, name)
	}
}

// TestConcurrentCompactionsKeepEachOthersInputs loads keys in ascending
// order, as store.Load does, then overwrites them at random. Ascending
// L0 files span narrow key ranges, so an L0->L1 job and an L1->L2 job
// run at once with inputs in the same level; a commit, which finds its
// own inputs by the job d.busy names, must leave the other job's in
// place. After every op each busy table must still be in a level, and
// at the end every key must read back.
func TestConcurrentCompactionsKeepEachOthersInputs(t *testing.T) {
	db, _ := mergeEnv(t, false)
	const keys = 20000
	rng := sim.NewRNG(3)
	var now sim.Duration
	var err error
	shared := 0 // ops after which two jobs held inputs in one level
	for op := 0; op < 2*keys; op++ {
		id := uint64(op)
		if op >= keys {
			id = rng.Uint64n(keys)
		}
		if now, err = db.Put(now, kv.EncodeKey(id), nil, 100); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		inLevel := map[uint64]bool{}
		for _, level := range db.levels {
			for _, tbl := range level {
				inLevel[tbl.ID] = true
			}
		}
		jobs := map[*compactionJob]bool{}
		for id, j := range db.busy {
			if !inLevel[id] {
				t.Fatalf("op %d: table %d is an input of the L%d->L%d job but in no level", op, id, j.fromLevel, j.toLevel)
			}
			jobs[j] = true
		}
		if len(jobs) == 2 {
			var levels []int
			for j := range jobs {
				levels = append(levels, j.fromLevel, j.toLevel)
			}
			if levels[0] == levels[2] || levels[0] == levels[3] || levels[1] == levels[2] || levels[1] == levels[3] {
				shared++
			}
		}
	}
	if shared == 0 {
		t.Fatal("no two compactions ever held inputs in one level: the log does not reach the case")
	}
	for id := uint64(0); id < keys; id++ {
		var found bool
		if now, _, found, err = db.Get(now, kv.EncodeKey(id)); err != nil || !found {
			t.Fatalf("key %d: found=%v err=%v", id, found, err)
		}
	}
}
