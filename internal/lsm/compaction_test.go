package lsm

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/extfs"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/sstable"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_compactions_key16.txt")

// shadowDev keeps a copy of every page written through it, so a test can
// hash a table's file image without a device read (a read would move the
// simulated device's clock and with it the run under test).
type shadowDev struct {
	*blockdev.Device
	pages map[int64][]byte
}

func (s *shadowDev) WriteErr(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error) {
	done, err := s.Device.WriteErr(now, off, n, data)
	if err == nil && data != nil {
		ps := s.PageSize()
		for i := 0; i < n; i++ {
			p := off + int64(i)
			s.pages[p] = append(s.pages[p][:0], data[i*ps:(i+1)*ps]...)
		}
	}
	return done, err
}

// mergeEnv opens a DB on a small shadowed device, sized so a few
// thousand keys fill L0 and three sorted levels: 16 KiB memtables,
// 8 KiB output files and 2 KiB blocks, level targets growing by 4 from
// 32 KiB.
func mergeEnv(tb testing.TB, content bool) (*DB, *shadowDev) {
	tb.Helper()
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  64 << 20,
		PageSize:      4096,
		PagesPerBlock: 32,
		Profile: flash.Profile{
			Name:       "lsm-merge-test",
			ReadFixed:  5 * time.Microsecond,
			WriteFixed: 5 * time.Microsecond,
			ReadBW:     2 << 30,
			WriteBW:    1 << 30,
			HardwareOP: 0.25,
			EraseTime:  200 * time.Microsecond,
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	dev := &shadowDev{Device: blockdev.New(ssd), pages: map[int64][]byte{}}
	if content {
		dev.EnableContentStore()
	}
	fs, err := extfs.Mount(dev, extfs.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := NewConfig(32 << 20)
	cfg.Content = content
	cfg.MemtableBytes = 16 << 10
	cfg.BaseLevelBytes = 32 << 10
	cfg.LevelSizeMultiplier = 4
	cfg.TargetFileBytes = 8 << 10
	cfg.BlockBytes = 2 << 10
	cfg.CPUPutTime = time.Microsecond
	cfg.CPUGetTime = time.Microsecond
	db, err := Open(fs, cfg, sim.NewRNG(42))
	if err != nil {
		tb.Fatal(err)
	}
	return db, dev
}

// tableDigest hashes what a compaction produced for one table. Content
// mode hashes the file image on the device; accounting mode, which
// writes no bytes, hashes the side index's entries, logical size and
// page count.
func tableDigest(tb testing.TB, db *DB, dev *shadowDev, t *sstable.Table) []byte {
	h := sha256.New()
	fmt.Fprintf(h, "%s|", t.FileName())
	if db.cfg.Content {
		f, err := db.fs.Open(t.FileName())
		if err != nil {
			tb.Fatal(err)
		}
		for _, e := range f.Extents() {
			for p := e[0]; p < e[0]+e[1]; p++ {
				page, ok := dev.pages[p]
				if !ok {
					tb.Fatalf("%s: page %d of its image was never written", t.FileName(), p)
				}
				h.Write(page)
			}
		}
		return h.Sum(nil)
	}
	fmt.Fprintf(h, "%d|%d|", t.SizeBytes(), t.FilePages())
	it := t.IteratorFrom(nil)
	var w [13]byte
	for it.Next() {
		e := it.Entry()
		h.Write(e.Key)
		binary.LittleEndian.PutUint64(w[:], e.Seq)
		binary.LittleEndian.PutUint32(w[8:], uint32(e.ValueLen))
		w[12] = 0
		if e.Deleted {
			w[12] = 1
		}
		h.Write(w[:])
	}
	return h.Sum(nil)
}

// compactionShapes records which merge shapes a run's compactions took,
// read from each job's inputs as its picker creates it.
type compactionShapes struct {
	l0Overlapping bool // an L0 job of >= 3 files, a key in two L0 inputs and one in an L0 and an L1 input
	deepDrop      bool // a sorted-level job into the deepest populated level (tombstones dropped)
	deepKeep      bool // a sorted-level job above it (tombstones kept)
}

func (s *compactionShapes) observe(d *DB, j *compactionJob) {
	if j.fromLevel > 0 {
		if j.toLevel >= d.deepestPopulatedLevel() {
			s.deepDrop = true
		} else {
			s.deepKeep = true
		}
		return
	}
	if j.fromCount < 3 {
		return
	}
	inL0 := map[string]int{}
	acrossL0 := false
	for _, t := range j.inputs[:j.fromCount] {
		it := t.IteratorFrom(nil)
		for it.Next() {
			k := string(it.Entry().Key)
			inL0[k]++
			acrossL0 = acrossL0 || inL0[k] > 1
		}
	}
	intoL1 := false
	for _, t := range j.inputs[j.fromCount:] {
		it := t.IteratorFrom(nil)
		for it.Next() {
			intoL1 = intoL1 || inL0[string(it.Entry().Key)] > 0
		}
	}
	s.l0Overlapping = s.l0Overlapping || acrossL0 && intoL1
}

// runCompactionLog drives a DB through a seeded log of puts, overwrites
// and deletes, id i written under key(i), and returns one line per 256
// ops: the digest of every live table, level by level.
func runCompactionLog(t *testing.T, content bool, key func(uint64) []byte) ([]string, compactionShapes) {
	const (
		ops   = 16384
		ids   = 3000
		every = 256
	)
	db, dev := mergeEnv(t, content)
	var shapes compactionShapes
	db.compactW.SetIdlePuller(func() sim.Job {
		j := db.pullL0Compaction()
		if j != nil {
			shapes.observe(db, j.(*compactionJob))
		}
		return j
	})
	db.compactWD.SetIdlePuller(func() sim.Job {
		j := db.pullDeepCompaction()
		if j != nil {
			shapes.observe(db, j.(*compactionJob))
		}
		return j
	})
	rng := sim.NewRNG(7)
	var now sim.Duration
	var lines []string
	for op := 1; op <= ops; op++ {
		id := rng.Uint64n(ids)
		key := key(id)
		var err error
		if rng.Intn(100) < 15 {
			now, err = db.Delete(now, key)
		} else {
			vlen := 40 + rng.Intn(160)
			var v []byte
			if content {
				v = make([]byte, vlen)
				kv.SynthValue(v, key, uint64(op))
			}
			now, err = db.Put(now, key, v, vlen)
		}
		if err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
		if op%every != 0 {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "content=%v ops=%d", content, op)
		for li, level := range db.levels {
			if len(level) == 0 {
				continue
			}
			h := sha256.New()
			for _, tbl := range level {
				h.Write(tableDigest(t, db, dev, tbl))
			}
			fmt.Fprintf(&b, " L%d=%d:%x", li, len(level), h.Sum(nil)[:8])
		}
		lines = append(lines, b.String())
	}
	return lines, shapes
}

// TestGoldenCompactions pins the tables compactions build, byte for byte
// in content mode and entry for entry in accounting mode, over an op log
// of 16-byte keys whose compactions cover every merge shape: L0 jobs of
// several overlapping files with keys repeated across them and in L1,
// and sorted-level jobs both into the deepest level (tombstones dropped)
// and above it (kept).
//
// To rewrite the fixture after a deliberate change to what compactions
// produce:
//
//	go test ./internal/lsm -run TestGoldenCompactions -update-golden
func TestGoldenCompactions(t *testing.T) {
	checkGoldenCompactions(t, kv.EncodeKey, "golden_compactions_key16.txt")
}

// checkGoldenCompactions runs the op log with key in both modes, checks
// that it reached every merge shape and compares its lines with the
// fixture testdata/name.
func checkGoldenCompactions(t *testing.T, key func(uint64) []byte, name string) {
	var got []string
	for _, content := range []bool{false, true} {
		lines, shapes := runCompactionLog(t, content, key)
		if !shapes.l0Overlapping || !shapes.deepDrop || !shapes.deepKeep {
			t.Fatalf("content=%v: the log did not reach every merge shape: %+v", content, shapes)
		}
		got = append(got, lines...)
	}
	path := filepath.Join("testdata", name)
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update-golden to create): %v", err)
	}
	if string(want) != text {
		wl := strings.Split(string(want), "\n")
		gl := strings.Split(text, "\n")
		for i := 0; i < len(wl) && i < len(gl); i++ {
			if wl[i] != gl[i] {
				t.Fatalf("compaction outputs differ from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("compaction outputs differ from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}

// benchTables builds accounting-mode tables installed on one empty file
// (a merge reads only their side indexes): each element of idSets is
// one table of 16-byte keys with 128-byte values, seqs counting up from
// *seq.
func benchTables(tb testing.TB, d *DB, idSets [][]uint64, seq *uint64) []*sstable.Table {
	tb.Helper()
	f, err := d.fs.Create(fmt.Sprintf("bench-%d", *seq))
	if err != nil {
		tb.Fatal(err)
	}
	var out []*sstable.Table
	for _, ids := range idSets {
		b := sstable.NewBuilder(d.fs.PageSize(), d.cfg.BlockBytes, false, len(ids), &d.spares)
		for _, id := range ids {
			*seq++
			if err := b.Add(&kv.Entry{Key: kv.EncodeKey(id), ValueLen: 128, Seq: *seq}); err != nil {
				tb.Fatal(err)
			}
		}
		out = append(out, b.Finish(*seq).Install(f))
	}
	return out
}

// randomIDs returns n distinct ids below limit, sorted.
func randomIDs(rng *sim.RNG, n int, limit uint64) []uint64 {
	seen := map[uint64]bool{}
	out := make([]uint64, 0, n)
	for len(out) < n {
		if id := rng.Uint64n(limit); !seen[id] {
			seen[id] = true
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BenchmarkCompactionMerge measures a compaction's merge — the CPU-
// instant part that lays out its output tables — per input entry, in
// accounting mode, for two fixed shapes over one sorted run of ten
// 2,000-entry tables (the even ids below 40,000), with 256 KiB output
// files of 32 KiB blocks:
//
//   - l0: four overlapping files of 2,000 random ids below 40,000, the
//     shape of an L0->L1 job;
//   - deep: one such file, the shape of a sorted-level job.
func BenchmarkCompactionMerge(b *testing.B) {
	const (
		perTable = 2000
		runLen   = 10
		limit    = 2 * perTable * runLen
	)
	for _, shape := range []struct {
		name string
		from int
	}{{"l0", 4}, {"deep", 1}} {
		b.Run(shape.name, func(b *testing.B) {
			d, _ := mergeEnv(b, false)
			d.cfg.TargetFileBytes = 256 << 10
			d.cfg.BlockBytes = sstable.DefaultBlockBytes
			var seq uint64
			runIDs := make([][]uint64, runLen)
			for i := range runIDs {
				for k := 0; k < perTable; k++ {
					runIDs[i] = append(runIDs[i], uint64(2*(i*perTable+k)))
				}
			}
			run := benchTables(b, d, runIDs, &seq)
			rng := sim.NewRNG(1)
			fromIDs := make([][]uint64, shape.from)
			for i := range fromIDs {
				fromIDs[i] = randomIDs(rng, perTable, limit)
			}
			from := benchTables(b, d, fromIDs, &seq)
			inputs := append(append([]*sstable.Table(nil), from...), run...)
			out, err := d.fs.Create("bench-out")
			if err != nil {
				b.Fatal(err)
			}
			entries := 0
			for _, t := range inputs {
				entries += t.NumEntries()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := &compactionJob{d: d, toLevel: 1, inputs: inputs, fromCount: len(from)}
				j.merge()
				if d.fatal != nil {
					b.Fatal(d.fatal)
				}
				// The outputs' side-index arrays go back to the spares,
				// as a compaction that removes them would return them.
				for _, img := range j.images {
					img.Install(out).Release()
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
		})
	}
}

// fuzzEnvs holds one DB per mode for FuzzCompactionMerge, built on first
// use: a merge reads only its inputs' side indexes and the DB's config,
// spares and level shape, so iterations share it.
var fuzzEnvs [2]*DB

// referenceMerge is the per-entry merge that Scan and flush keep:
// mergeIter over every input table's iterator, last-key dedup and
// Builder.Add, rolling files at the DB's TargetFileBytes.
func referenceMerge(t *testing.T, d *DB, inputs []*sstable.Table, drop bool) []*sstable.FileImage {
	its := make([]kv.Iterator, len(inputs))
	for i, tbl := range inputs {
		its[i] = tbl.IteratorFrom(nil)
	}
	m := newMergeIter(its)
	var out []*sstable.FileImage
	var b *sstable.Builder
	var lastKey []byte
	for m.Next() {
		e := m.Entry()
		if lastKey != nil && bytes.Equal(e.Key, lastKey) {
			continue
		}
		lastKey = append(lastKey[:0], e.Key...)
		if e.Deleted && drop {
			continue
		}
		if b == nil {
			b = sstable.NewBuilder(d.fs.PageSize(), d.cfg.BlockBytes, d.cfg.Content, 0, &d.spares)
		}
		if err := b.Add(e); err != nil {
			t.Fatal(err)
		}
		if b.EstimatedBytes() >= d.cfg.TargetFileBytes {
			d.nextFileID++
			out = append(out, b.Finish(d.nextFileID))
			b = nil
		}
	}
	if b != nil {
		d.nextFileID++
		out = append(out, b.Finish(d.nextFileID))
	}
	return out
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

// FuzzCompactionMerge holds the compaction merge to the per-entry
// reference over fuzz-chosen shapes: 1-5 fromLevel tables (overlapping,
// like L0's), a toLevel run of 0-6 non-overlapping tables, keys from a
// small id space (so keys repeat across runs), tombstones, either mode,
// with or without the tombstone drop, and output files and blocks small
// enough to roll mid-merge. The outputs
// must agree entry for entry, in their file-roll points and, in content
// mode, byte for byte.
func FuzzCompactionMerge(f *testing.F) {
	for k := 0; k < 12; k++ {
		rng := sim.NewRNG(uint64(k))
		seed := []byte{byte(k), byte(k / 2), byte(k % 4), byte(3 * k), byte(k)}
		for i := 0; i < 600; i++ {
			seed = append(seed, byte(rng.Uint64()))
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		nFrom, nTo, flags := 1+in.next()%5, in.next()%7, in.next()
		drop, content := flags&1 != 0, flags&2 != 0
		mode := 0
		if content {
			mode = 1
		}
		if fuzzEnvs[mode] == nil {
			fuzzEnvs[mode], _ = mergeEnv(t, content)
		}
		d := fuzzEnvs[mode]
		d.cfg.TargetFileBytes = int64(256 * (1 + in.next()%32))
		d.cfg.BlockBytes = 512 * (1 + in.next()%8)
		file, err := d.fs.Create(fmt.Sprintf("fuzz-%d", d.nextFileID))
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = d.fs.Remove(file.Name()) }() // the file holds no pages; removing it only frees its name

		// keysOf returns the distinct keys of ids in key order.
		keysOf := func(ids []uint64) [][]byte {
			seen := map[uint64]bool{}
			var keys [][]byte
			for _, id := range ids {
				if !seen[id] {
					seen[id] = true
					keys = append(keys, kv.EncodeKey(id))
				}
			}
			sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
			return keys
		}
		// tableOf builds one table of sorted keys with fuzz-chosen
		// tombstones and value lengths and seqs unique across the merge.
		var seq uint64
		tableOf := func(keys [][]byte) *sstable.Table {
			b := sstable.NewBuilder(d.fs.PageSize(), d.cfg.BlockBytes, content, len(keys), &d.spares)
			for _, k := range keys {
				seq++
				e := kv.Entry{Key: k, Seq: uint64(in.next())<<16 | seq}
				if v := in.next(); v%5 == 0 {
					e.Deleted = true
				} else {
					e.ValueLen = v
					if content {
						e.Value = make([]byte, v)
						kv.SynthValue(e.Value, k, e.Seq)
					}
				}
				if err := b.Add(&e); err != nil {
					t.Fatal(err)
				}
			}
			return b.Finish(seq).Install(file)
		}
		const idSpace = 48
		draw := func(n int) []uint64 {
			ids := make([]uint64, n)
			for k := range ids {
				ids[k] = uint64(in.next() % idSpace)
			}
			return ids
		}
		var inputs []*sstable.Table
		for i := 0; i < nFrom; i++ {
			inputs = append(inputs, tableOf(keysOf(draw(1+in.next()%24))))
		}
		// The toLevel run: distinct keys cut in key order into nTo tables.
		if nTo > 0 {
			keys := keysOf(draw(in.next() % 40))
			for k := 0; k < nTo; k++ {
				if cut := keys[k*len(keys)/nTo : (k+1)*len(keys)/nTo]; len(cut) > 0 {
					inputs = append(inputs, tableOf(cut))
				}
			}
		}

		// toLevel is 1; a populated level 2 makes it not the deepest.
		d.levels[2] = nil
		if !drop {
			d.levels[2] = inputs[:1]
		}
		base := d.nextFileID
		j := &compactionJob{d: d, fromLevel: 0, toLevel: 1, inputs: inputs, fromCount: nFrom}
		j.merge()
		if d.fatal != nil {
			t.Fatal(d.fatal)
		}
		d.nextFileID = base
		want := referenceMerge(t, d, inputs, drop)
		d.levels[2] = nil

		if len(j.images) != len(want) {
			t.Fatalf("merge built %d files, reference %d", len(j.images), len(want))
		}
		for i, img := range j.images {
			w := want[i]
			got, ref := img.Install(file), w.Install(file)
			if img.ID() != w.ID() || img.Pages != w.Pages || got.SizeBytes() != ref.SizeBytes() || !bytes.Equal(img.Data, w.Data) {
				t.Fatalf("file %d: merge (id %d, %d pages, %d B) differs from reference (id %d, %d pages, %d B)",
					i, img.ID(), img.Pages, got.SizeBytes(), w.ID(), w.Pages, ref.SizeBytes())
			}
			gi, ri := got.IteratorFrom(nil), ref.IteratorFrom(nil)
			for n := 0; ; n++ {
				gok, rok := gi.Next(), ri.Next()
				if gok != rok {
					t.Fatalf("file %d: entry counts differ at entry %d", i, n)
				}
				if !gok {
					break
				}
				ge, re := gi.Entry(), ri.Entry()
				if !bytes.Equal(ge.Key, re.Key) || !bytes.Equal(ge.Value, re.Value) || ge.ValueLen != re.ValueLen ||
					ge.Seq != re.Seq || ge.Deleted != re.Deleted {
					t.Fatalf("file %d entry %d: merge %+v, reference %+v", i, n, *ge, *re)
				}
			}
			got.Release()
			ref.Release()
		}
		for _, tbl := range inputs {
			tbl.Release()
		}
	})
}
