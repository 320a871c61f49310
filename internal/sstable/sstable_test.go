package sstable

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/extfs"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

func newTestFS(t testing.TB, content bool) (*extfs.FS, *blockdev.Device) {
	t.Helper()
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  64 << 20,
		PageSize:      4096,
		PagesPerBlock: 32,
		Profile: flash.Profile{
			Name:       "sst-test",
			ReadFixed:  time.Microsecond,
			WriteFixed: time.Microsecond,
			ReadBW:     1 << 30,
			WriteBW:    1 << 30,
			HardwareOP: 0.25,
			EraseTime:  100 * time.Microsecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := blockdev.New(ssd)
	if content {
		dev.EnableContentStore()
	}
	fs, err := extfs.Mount(dev, extfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev
}

// buildTable builds and installs a table with the given entries.
func buildTable(t testing.TB, fs *extfs.FS, name string, content bool, entries []kv.Entry) *Table {
	t.Helper()
	b := NewBuilder(fs.PageSize(), DefaultBlockBytes, content, 0)
	for i := range entries {
		if err := b.Add(&entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	return installImage(t, fs, name, b.Finish(1))
}

// installImage writes img to a new file and installs the table.
func installImage(t testing.TB, fs *extfs.FS, name string, img *FileImage) *Table {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Duration
	var written int64
	for {
		var done bool
		now, written, done, err = img.WriteChunk(now, f, written, 64)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	return img.Install(f)
}

// get looks key up in tbl at time 0 through a fresh probe.
func get(tbl *Table, key []byte) (sim.Duration, kv.Entry, bool, error) {
	p := NewProbe(key)
	return tbl.Get(0, &p)
}

func synthEntries(n int, valueLen int, content bool) []kv.Entry {
	entries := make([]kv.Entry, n)
	for i := 0; i < n; i++ {
		e := kv.Entry{
			Key:      kv.EncodeKey(uint64(i * 3)), // gaps for negative lookups
			ValueLen: valueLen,
			Seq:      uint64(1000 + i),
		}
		if content {
			e.Value = make([]byte, valueLen)
			kv.SynthValue(e.Value, e.Key, e.Seq)
		}
		entries[i] = e
	}
	return entries
}

func TestBuildAndGetAccountingMode(t *testing.T) {
	fs, _ := newTestFS(t, false)
	entries := synthEntries(500, 100, false)
	tbl := buildTable(t, fs, "sst-1", false, entries)
	if tbl.NumEntries() != 500 {
		t.Fatalf("NumEntries = %d", tbl.NumEntries())
	}
	done, e, found, err := get(tbl, kv.EncodeKey(42*3))
	if err != nil || !found {
		t.Fatalf("Get: found=%v err=%v", found, err)
	}
	if e.Seq != 1000+42 || e.ValueLen != 100 {
		t.Fatalf("entry wrong: %+v", e)
	}
	if done == 0 {
		t.Fatal("positive Get must charge device time")
	}
}

func TestGetMissingKeyBloomNegative(t *testing.T) {
	fs, dev := newTestFS(t, false)
	entries := synthEntries(1000, 50, false)
	tbl := buildTable(t, fs, "sst-1", false, entries)
	readsBefore := dev.Counters().ReadOps
	misses := 0
	charged := 0
	for i := 0; i < 500; i++ {
		// Keys congruent to 1 mod 3 are absent.
		_, _, found, err := get(tbl, kv.EncodeKey(uint64(i*3+1)))
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Fatal("found a key that was never inserted")
		}
		misses++
	}
	charged = int(dev.Counters().ReadOps - readsBefore)
	// With a 10-bits-per-key bloom filter, false positives should be
	// rare: expect well under 10% of misses to charge a block read.
	if charged > misses/10 {
		t.Fatalf("bloom filter ineffective: %d/%d misses read blocks", charged, misses)
	}
}

func TestContentModeRoundTrip(t *testing.T) {
	fs, _ := newTestFS(t, true)
	entries := synthEntries(300, 64, true)
	tbl := buildTable(t, fs, "sst-1", true, entries)
	for _, idx := range []int{0, 1, 150, 298, 299} {
		_, e, found, err := get(tbl, entries[idx].Key)
		if err != nil || !found {
			t.Fatalf("Get idx %d: found=%v err=%v", idx, found, err)
		}
		if !bytes.Equal(e.Value, entries[idx].Value) {
			t.Fatalf("value mismatch at idx %d", idx)
		}
		if e.Seq != entries[idx].Seq {
			t.Fatalf("seq mismatch at idx %d", idx)
		}
	}
}

func TestOpenFromFile(t *testing.T) {
	fs, _ := newTestFS(t, true)
	entries := synthEntries(400, 48, true)
	tbl := buildTable(t, fs, "sst-1", true, entries)

	f, err := fs.Open("sst-1")
	if err != nil {
		t.Fatal(err)
	}
	reopened, _, err := OpenFromFile(f, fs.PageSize(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.NumEntries() != tbl.NumEntries() {
		t.Fatalf("reopened entries %d != %d", reopened.NumEntries(), tbl.NumEntries())
	}
	if !bytes.Equal(reopened.Smallest(), tbl.Smallest()) ||
		!bytes.Equal(reopened.Largest(), tbl.Largest()) {
		t.Fatal("key range mismatch after reopen")
	}
	// Values still readable through the reopened table.
	_, e, found, err := get(reopened, entries[123].Key)
	if err != nil || !found {
		t.Fatalf("reopened Get: %v %v", found, err)
	}
	if !bytes.Equal(e.Value, entries[123].Value) {
		t.Fatal("reopened value mismatch")
	}
}

func TestIteratorFullScan(t *testing.T) {
	fs, _ := newTestFS(t, false)
	entries := synthEntries(777, 32, false)
	tbl := buildTable(t, fs, "sst-1", false, entries)
	it := tbl.Iterator()
	i := 0
	var prev []byte
	for it.Next() {
		e := it.Entry()
		if !bytes.Equal(e.Key, entries[i].Key) {
			t.Fatalf("key %d mismatch", i)
		}
		if prev != nil && bytes.Compare(prev, e.Key) >= 0 {
			t.Fatal("iterator out of order")
		}
		prev = append(prev[:0], e.Key...)
		i++
	}
	if i != len(entries) {
		t.Fatalf("iterated %d, want %d", i, len(entries))
	}
}

func TestBuilderRejectsOutOfOrder(t *testing.T) {
	b := NewBuilder(4096, DefaultBlockBytes, false, 0)
	if err := b.Add(&kv.Entry{Key: kv.EncodeKey(5), ValueLen: 1}); err != nil {
		t.Fatal(err)
	}
	if err := b.Add(&kv.Entry{Key: kv.EncodeKey(4), ValueLen: 1}); err == nil {
		t.Fatal("out-of-order Add should fail")
	}
	if err := b.Add(&kv.Entry{Key: kv.EncodeKey(5), ValueLen: 1}); err == nil {
		t.Fatal("duplicate Add should fail")
	}
}

func TestPosition(t *testing.T) {
	fs, _ := newTestFS(t, false)
	entries := synthEntries(100, 10, false) // keys 0,3,...,297
	for i := range entries {
		entries[i].Key = kv.EncodeKey(uint64(5 + i*3)) // keys 5,8,...,302
	}
	fixed := buildTable(t, fs, "sst-1", false, entries)
	// The same range with one 24-byte key inside: the byte path.
	entries[50].Key = append(kv.EncodeKey(5+50*3), 0, 0, 0, 0, 0, 0, 0, 0)
	mixed := buildTable(t, fs, "sst-2", false, entries)
	if !fixed.fixed || mixed.fixed {
		t.Fatalf("fixed flags: %v, %v", fixed.fixed, mixed.fixed)
	}
	cases := []struct {
		key  []byte
		want int
	}{
		{kv.EncodeKey(0), -1},
		{kv.EncodeKey(4), -1},
		{kv.EncodeKey(5), 0},
		{kv.EncodeKey(100), 0},
		{kv.EncodeKey(302), 0},
		{kv.EncodeKey(303), 1},
		{kv.EncodeKey(1 << 62), 1},
		{append(kv.EncodeKey(4), 0), -1}, // 17 bytes, below
		{kv.EncodeKey(5)[:15], -1},       // a prefix of Smallest sorts before it
		{append(kv.EncodeKey(5), 0), 0},
		{append(kv.EncodeKey(302), 0), 1},
		{[]byte{}, -1},
		{[]byte{1}, 1},
	}
	for _, tbl := range []*Table{fixed, mixed} {
		for _, c := range cases {
			p := NewProbe(c.key)
			got := tbl.Position(&p)
			if sign(got) != c.want {
				t.Fatalf("fixed=%v Position(%x) = %d, want %d", tbl.fixed, c.key, got, c.want)
			}
		}
	}
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

func TestTombstonesSurviveRoundTrip(t *testing.T) {
	fs, _ := newTestFS(t, true)
	entries := []kv.Entry{
		{Key: kv.EncodeKey(1), Value: []byte("live"), ValueLen: 4, Seq: 1},
		{Key: kv.EncodeKey(2), Value: []byte{}, ValueLen: 0, Seq: 2, Deleted: true},
		{Key: kv.EncodeKey(3), Value: []byte("also"), ValueLen: 4, Seq: 3},
	}
	tbl := buildTable(t, fs, "sst-1", true, entries)
	_, e, found, err := get(tbl, kv.EncodeKey(2))
	if err != nil || !found {
		t.Fatalf("tombstone lookup: %v %v", found, err)
	}
	if !e.Deleted {
		t.Fatal("tombstone flag lost")
	}
	f, _ := fs.Open("sst-1")
	re, _, err := OpenFromFile(f, fs.PageSize(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, e2, found, err := get(re, kv.EncodeKey(2))
	if err != nil || !found || !e2.Deleted {
		t.Fatal("tombstone lost after reopen")
	}
}

func TestSizeAccountingConsistency(t *testing.T) {
	// Logical size must be identical in content and accounting modes.
	build := func(content bool) (int64, int64) {
		b := NewBuilder(4096, DefaultBlockBytes, content, 0)
		for _, e := range synthEntries(250, 123, content) {
			if err := b.Add(&e); err != nil {
				t.Fatal(err)
			}
		}
		img := b.Finish(7)
		return img.SizeBytes, img.Pages
	}
	sizeA, pagesA := build(false)
	sizeC, pagesC := build(true)
	if sizeA != sizeC || pagesA != pagesC {
		t.Fatalf("mode-dependent sizes: acct %d/%d, content %d/%d",
			sizeA, pagesA, sizeC, pagesC)
	}
}

func TestChunkedWriteMatchesWholeWrite(t *testing.T) {
	fs, dev := newTestFS(t, false)
	entries := synthEntries(2000, 200, false)
	b := NewBuilder(fs.PageSize(), DefaultBlockBytes, false, 0)
	for i := range entries {
		if err := b.Add(&entries[i]); err != nil {
			t.Fatal(err)
		}
	}
	img := b.Finish(1)
	f, _ := fs.Create("sst")
	var now sim.Duration
	var written int64
	steps := 0
	for {
		var done bool
		var err error
		now, written, done, err = img.WriteChunk(now, f, written, 8)
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
	}
	if steps < 2 {
		t.Fatal("expected multiple chunks")
	}
	if got := f.SizePages(); got != img.Pages {
		t.Fatalf("file pages %d != image pages %d", got, img.Pages)
	}
	if got := f.SizeBytes(); got != img.SizeBytes {
		t.Fatalf("file bytes %d != image bytes %d", got, img.SizeBytes)
	}
	wantBytes := img.Pages * int64(fs.PageSize())
	if got := dev.Counters().BytesWritten; got != wantBytes {
		t.Fatalf("device wrote %d, want %d", got, wantBytes)
	}
}

func TestEmptyTable(t *testing.T) {
	fs, _ := newTestFS(t, false)
	tbl := buildTable(t, fs, "sst-empty", false, nil)
	if tbl.NumEntries() != 0 {
		t.Fatal("empty table should have 0 entries")
	}
	if p := NewProbe(kv.EncodeKey(1)); tbl.Position(&p) == 0 {
		t.Fatal("empty table contains no key")
	}
	_, _, found, err := get(tbl, kv.EncodeKey(1))
	if err != nil || found {
		t.Fatalf("empty Get: %v %v", found, err)
	}
}

func TestBlockSpanningEntries(t *testing.T) {
	// Values larger than the block target: one entry per block.
	fs, _ := newTestFS(t, true)
	entries := synthEntries(10, DefaultBlockBytes*2, true)
	tbl := buildTable(t, fs, "sst-big", true, entries)
	if len(tbl.blocks) != 10 {
		t.Fatalf("expected 10 single-entry blocks, got %d", len(tbl.blocks))
	}
	for i := range entries {
		_, e, found, err := get(tbl, entries[i].Key)
		if err != nil || !found {
			t.Fatalf("big entry %d: %v %v", i, found, err)
		}
		if !bytes.Equal(e.Value, entries[i].Value) {
			t.Fatalf("big value %d mismatch", i)
		}
	}
}

// Property: Get finds exactly the inserted keys for random key sets.
func TestTableLookupProperty(t *testing.T) {
	fs, _ := newTestFS(t, false)
	id := 0
	f := func(rawIDs []uint32) bool {
		id++
		// Dedup and sort.
		seen := map[uint64]bool{}
		var ids []uint64
		for _, r := range rawIDs {
			v := uint64(r % 10000)
			if !seen[v] {
				seen[v] = true
				ids = append(ids, v)
			}
		}
		if len(ids) == 0 {
			return true
		}
		sortUint64(ids)
		entries := make([]kv.Entry, len(ids))
		for i, kid := range ids {
			entries[i] = kv.Entry{Key: kv.EncodeKey(kid), ValueLen: 10, Seq: uint64(i)}
		}
		name := "sst-prop-" + string(rune('a'+id%26)) + string(rune('0'+id/26%10)) + string(rune('0'+id%10))
		tbl := buildTable(t, fs, name, false, entries)
		for _, kid := range ids {
			_, _, found, err := get(tbl, kv.EncodeKey(kid))
			if err != nil || !found {
				return false
			}
		}
		// A key beyond the max must not be found.
		_, _, found, _ := get(tbl, kv.EncodeKey(10001))
		return !found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func sortUint64(s []uint64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

func TestBloomFilterBasics(t *testing.T) {
	b := newBloom(100)
	for i := 0; i < 100; i++ {
		b.Add(kv.EncodeKey(uint64(i)))
	}
	for i := 0; i < 100; i++ {
		if !b.mayContain(hash64(kv.EncodeKey(uint64(i)))) {
			t.Fatalf("false negative for key %d", i)
		}
	}
	fp := 0
	for i := 100; i < 1100; i++ {
		if b.mayContain(hash64(kv.EncodeKey(uint64(i)))) {
			fp++
		}
	}
	if fp > 50 { // ~1% expected at 10 bits/key; 5% is a generous bound
		t.Fatalf("false positive rate too high: %d/1000", fp)
	}
}

// TestBloomModBits pins the division-free remainder under every filter
// probe against the % it replaces.
func TestBloomModBits(t *testing.T) {
	rng := sim.NewRNG(3)
	xs := []uint32{0, 1, 2, 63, 64, 1<<31 - 1, 1 << 31, 1<<32 - 2, 1<<32 - 1}
	for i := 0; i < 200; i++ {
		xs = append(xs, uint32(rng.Uint64()))
	}
	check := func(d uint32) {
		b := newBloomBits(nil, 1, d)
		for _, x := range append(xs, d-1, d, d+1, 2*d, 3*d-1) {
			if got, want := b.modBits(x), x%d; got != want {
				t.Fatalf("modBits(%d) mod %d = %d, want %d", x, d, got, want)
			}
		}
	}
	for d := uint32(1); d <= 100; d++ {
		check(d)
	}
	for i := 0; i < 2000; i++ {
		if d := uint32(rng.Uint64()); d != 0 {
			check(d)
		}
	}
	check(1<<32 - 1)
}

func TestBloomEncodeDecode(t *testing.T) {
	b := newBloom(50)
	for i := 0; i < 50; i++ {
		b.Add(kv.EncodeKey(uint64(i * 7)))
	}
	enc := b.encode()
	d, ok := decodeBloom(enc)
	if !ok {
		t.Fatal("decode failed")
	}
	for i := 0; i < 50; i++ {
		if !d.mayContain(hash64(kv.EncodeKey(uint64(i * 7)))) {
			t.Fatal("decoded filter lost a key")
		}
	}
	if _, ok := decodeBloom([]byte{1, 2}); ok {
		t.Fatal("short buffer should fail decode")
	}
}
