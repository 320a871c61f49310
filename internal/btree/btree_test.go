package btree

import (
	"bytes"
	"testing"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/cowtree"
	"ptsbench/internal/extfs"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

func testEnv(t *testing.T, capacityMiB int64, content bool, tweak func(*Config)) (*Tree, *blockdev.Device, *extfs.FS) {
	t.Helper()
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  capacityMiB << 20,
		PageSize:      4096,
		PagesPerBlock: 32,
		Profile: flash.Profile{
			Name:       "bt-test",
			ReadFixed:  5 * time.Microsecond,
			WriteFixed: 5 * time.Microsecond,
			ReadBW:     2 << 30,
			WriteBW:    1 << 30,
			HardwareOP: 0.25,
			EraseTime:  200 * time.Microsecond,
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
	cfg := NewConfig(capacityMiB << 19)
	cfg.Content = content
	cfg.CPUPutTime = time.Microsecond
	cfg.CPUGetTime = time.Microsecond
	if tweak != nil {
		tweak(&cfg)
	}
	tree, err := Open(fs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tree, dev, fs
}

func TestSplitsAndDepthGrowth(t *testing.T) {
	tr, _, _ := testEnv(t, 32, false, func(c *Config) {
		c.LeafPageBytes = 1 << 10 // tiny pages force splits
		c.InternalPageBytes = 512
	})
	var now sim.Duration
	var err error
	for i := uint64(0); i < 2000; i++ {
		now, err = tr.Put(now, kv.EncodeKey(i), nil, 20)
		if err != nil {
			t.Fatal(err)
		}
	}
	if tr.IO().LeafSplits == 0 {
		t.Fatal("expected leaf splits")
	}
	if tr.IO().InternalSplits == 0 {
		t.Fatal("expected internal splits")
	}
	if tr.Depth() < 3 {
		t.Fatalf("depth %d, want >= 3", tr.Depth())
	}
	// Every key still present.
	for i := uint64(0); i < 2000; i++ {
		_, _, found, err := tr.Get(now, kv.EncodeKey(i))
		if err != nil || !found {
			t.Fatalf("key %d lost after splits: %v %v", i, found, err)
		}
	}
	leaves, internals := tr.PageCount()
	if leaves < 10 || internals < 2 {
		t.Fatalf("page counts: %d leaves, %d internals", leaves, internals)
	}
}

func TestEvictionUnderCachePressure(t *testing.T) {
	tr, dev, _ := testEnv(t, 32, false, func(c *Config) {
		c.CacheBytes = 256 << 10 // small cache
		c.DisableJournal = true  // isolate eviction traffic
	})
	var now sim.Duration
	var err error
	rng := sim.NewRNG(1)
	for i := 0; i < 5000; i++ {
		now, err = tr.Put(now, kv.EncodeKey(rng.Uint64n(4000)), nil, 512)
		if err != nil {
			t.Fatal(err)
		}
	}
	if tr.IO().Evictions == 0 || tr.IO().EvictionWrites == 0 {
		t.Fatalf("expected evictions, io=%+v", tr.IO())
	}
	if dev.Counters().BytesWritten == 0 {
		t.Fatal("evictions should write to the device")
	}
	// Keys remain readable after their leaves were evicted.
	misses := tr.IO().CacheMisses
	for i := uint64(0); i < 4000; i += 131 {
		_, _, _, err := tr.Get(now, kv.EncodeKey(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	if tr.IO().CacheMisses == misses {
		t.Fatal("expected cache misses when reading evicted leaves")
	}
}

func TestCheckpointRuns(t *testing.T) {
	tr, _, fs := testEnv(t, 32, false, func(c *Config) {
		c.CheckpointInterval = 10 * time.Millisecond
	})
	var now sim.Duration
	var err error
	for i := 0; i < 3000; i++ {
		now, err = tr.Put(now, kv.EncodeKey(uint64(i%500)), nil, 256)
		if err != nil {
			t.Fatal(err)
		}
	}
	now = tr.Quiesce(now)
	if tr.IO().Checkpoints == 0 {
		t.Fatal("expected periodic checkpoints")
	}
	// Journal segments are recycled in place: the file count must stay
	// bounded (active + pooled) regardless of checkpoint count.
	journals := 0
	for _, name := range fs.List() {
		if len(name) >= 7 && name[:7] == "journal" {
			journals++
		}
	}
	if journals == 0 || journals > 3 {
		t.Fatalf("%d journal files, want 1..3 (recycled pool)", journals)
	}
}

func TestFlushAllWritesEverything(t *testing.T) {
	tr, _, _ := testEnv(t, 16, false, nil)
	var now sim.Duration
	var err error
	for i := 0; i < 200; i++ {
		now, err = tr.Put(now, kv.EncodeKey(uint64(i)), nil, 100)
		if err != nil {
			t.Fatal(err)
		}
	}
	end, err := tr.FlushAll(now)
	if err != nil {
		t.Fatal(err)
	}
	if end < now {
		t.Fatal("FlushAll went back in time")
	}
	if n := tr.core.DirtyCount(); n != 0 {
		t.Fatalf("%d dirty pages after FlushAll", n)
	}
}

func TestConfinedLBAFootprint(t *testing.T) {
	// The block manager must reuse freed extents: after heavy update
	// churn, the engine's file should not sprawl across the device.
	// This is the mechanism behind the paper's Fig 4.
	tr, dev, fs := testEnv(t, 64, false, func(c *Config) {
		c.CacheBytes = 256 << 10
		c.DisableJournal = true
	})
	var now sim.Duration
	var err error
	rng := sim.NewRNG(2)
	// Load 4 MiB of data, then update 5x over.
	const keys = 4096
	for i := uint64(0); i < keys; i++ {
		now, err = tr.Put(now, kv.EncodeKey(i), nil, 1024)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < int(keys)*5; i++ {
		now, err = tr.Put(now, kv.EncodeKey(rng.Uint64n(keys)), nil, 1024)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	f, _ := fs.Open("collection.wt")
	dataPages := int64(keys) * 1024 / 4096
	if f.SizePages() > dataPages*3 {
		t.Fatalf("collection file sprawled: %d pages for %d pages of data",
			f.SizePages(), dataPages)
	}
	// LBA footprint confined: well under half the device was ever
	// written.
	if frac := dev.FractionLBAsWritten(); frac > 0.5 {
		t.Fatalf("LBA footprint %.0f%%, want well under 50%%", frac*100)
	}
}

func TestWAAStableOverTime(t *testing.T) {
	// The paper (Fig 2d): WiredTiger's WA-A is flat over the run. Check
	// the second half of a long update run amplifies like the first.
	tr, dev, _ := testEnv(t, 64, false, func(c *Config) {
		c.CacheBytes = 256 << 10
	})
	var now sim.Duration
	var err error
	rng := sim.NewRNG(3)
	const keys = 2048
	for i := uint64(0); i < keys; i++ {
		now, err = tr.Put(now, kv.EncodeKey(i), nil, 1024)
		if err != nil {
			t.Fatal(err)
		}
	}
	measure := func(n int) float64 {
		c0 := dev.Counters().BytesWritten
		u0 := tr.Stats().UserBytesWritten
		for i := 0; i < n; i++ {
			now, err = tr.Put(now, kv.EncodeKey(rng.Uint64n(keys)), nil, 1024)
			if err != nil {
				t.Fatal(err)
			}
		}
		return float64(dev.Counters().BytesWritten-c0) / float64(tr.Stats().UserBytesWritten-u0)
	}
	first := measure(4000)
	second := measure(4000)
	if second < first*0.7 || second > first*1.3 {
		t.Fatalf("WA-A drifted: %.2f then %.2f", first, second)
	}
	if first < 2 {
		t.Fatalf("WA-A %.2f suspiciously low for page-granular updates", first)
	}
}

func TestPageSerializationRoundTrip(t *testing.T) {
	var m mem
	leaf := &page{Node: cowtree.Node{Leaf: true, Serialized: pageHeaderBytes}}
	leaf.insertLeaf(&m, kv.EncodeKey(1), []byte("abc"), 0, 7, false)
	leaf.insertLeaf(&m, kv.EncodeKey(2), nil, 64, 9, true)
	data := serializePage(nil, leaf, nil)
	got, ok := parsePage(data)
	if !ok {
		t.Fatal("parse failed")
	}
	if len(got.entries) != 2 || !bytes.Equal(got.entries[0].key, kv.EncodeKey(1)) {
		t.Fatalf("entries wrong: %v", got.entries)
	}
	if string(got.entries[0].val) != "abc" || got.entries[0].seq != 7 {
		t.Fatal("entry 0 wrong")
	}
	if !got.entries[1].del || got.entries[1].seq != 9 || got.entries[1].vlen != 64 {
		t.Fatal("tombstone entry wrong")
	}

	internal := &page{Node: cowtree.Node{Children: []pageID{1, 2, 3}}, seps: [][]byte{kv.EncodeKey(10), kv.EncodeKey(20)}}
	internal.recomputeSerialized()
	data = serializePage(nil, internal, func(id pageID) fileExtent {
		return fileExtent{Start: int64(id) * 100, Pages: 4}
	})
	got, ok = parsePage(data)
	if !ok || len(got.Children) != 3 || len(got.seps) != 2 {
		t.Fatalf("internal round trip: %+v %v", got, ok)
	}
	// Parsed internal pages carry child disk extents (in-memory ids are
	// assigned during the recovery rebuild).
	if got.childExtents[2].Start != 300 || got.childExtents[2].Pages != 4 ||
		!bytes.Equal(got.seps[1], kv.EncodeKey(20)) {
		t.Fatal("internal content wrong")
	}

	if _, ok := parsePage([]byte{1, 2, 3}); ok {
		t.Fatal("short page should fail")
	}

	// Appending to a non-empty buffer must leave the prefix intact and
	// produce a parseable image after it (the serializer writes its
	// header relative to the append point, not index 0).
	prefixed := serializePage([]byte("prefix"), leaf, nil)
	if string(prefixed[:6]) != "prefix" {
		t.Fatalf("serialize clobbered the buffer prefix: %q", prefixed[:6])
	}
	if got, ok := parsePage(prefixed[6:]); !ok || len(got.entries) != 2 {
		t.Fatal("image appended after a prefix failed to parse")
	}
}

// Property: the tree agrees with a reference map under random workloads.
func TestCloseRejectsOps(t *testing.T) {
	tr, _, _ := testEnv(t, 16, false, nil)
	now, err := tr.Put(0, kv.EncodeKey(1), nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Close(now); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Put(now, kv.EncodeKey(2), nil, 10); err != ErrClosed {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

func TestLRUConsistency(t *testing.T) {
	tr, _, _ := testEnv(t, 32, false, func(c *Config) {
		c.LeafPageBytes = 1 << 10
		c.CacheBytes = 32 << 10
	})
	var now sim.Duration
	var err error
	rng := sim.NewRNG(4)
	for i := 0; i < 3000; i++ {
		now, err = tr.Put(now, kv.EncodeKey(rng.Uint64n(2000)), nil, 64)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
	var resident int64
	for _, p := range tr.pages[1:] {
		if p.Resident {
			resident += int64(p.Serialized)
		}
	}
	if resident > tr.cfg.CacheBytes+int64(tr.cfg.LeafPageBytes) {
		t.Fatalf("cache over budget: %d > %d", resident, tr.cfg.CacheBytes)
	}
}
