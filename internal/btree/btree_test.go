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

func testEnv(t testing.TB, capacityMiB int64, content bool, tweak func(*Config)) (*Tree, *blockdev.Device, *extfs.FS) {
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
	leaves, internals := tr.NodeCount()
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
	if n := tr.Core.DirtyCount(); n != 0 {
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
	if frac := blockdev.CombinedFractionLBAsWritten([]blockdev.Host{dev}); frac > 0.5 {
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

// parsePage parses a B+Tree page image.
// TestLargerCacheLowersWAA sweeps the cache size over one workload: load
// 8,000 keys, then update random ones twice over. WA-A over the updates
// must not rise as the cache grows, and an 8 MiB cache, which absorbs
// more rewrites of a page before evicting it, must write less than a
// 256 KiB one.
func TestLargerCacheLowersWAA(t *testing.T) {
	run := func(cacheBytes int64) float64 {
		ssd, err := flash.NewDevice(flash.Config{
			LogicalBytes:  128 << 20,
			PageSize:      4096,
			PagesPerBlock: 64,
			Profile:       flash.ProfileSSD1().Scaled(2048),
		})
		if err != nil {
			t.Fatal(err)
		}
		dev := blockdev.New(ssd)
		fs, err := extfs.Mount(dev, extfs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := NewConfig(32 << 20)
		cfg.CacheBytes = cacheBytes
		tr, err := Open(fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(4)
		const keys = 8000
		var now sim.Duration
		for id := uint64(0); id < keys; id++ {
			if now, err = tr.Put(now, kv.EncodeKey(id), nil, 4000); err != nil {
				t.Fatal(err)
			}
		}
		user := tr.Stats().UserBytesWritten
		host := dev.Counters().BytesWritten
		for j := 0; j < keys*2; j++ {
			if now, err = tr.Put(now, kv.EncodeKey(rng.Uint64n(keys)), nil, 4000); err != nil {
				t.Fatal(err)
			}
		}
		return float64(dev.Counters().BytesWritten-host) / float64(tr.Stats().UserBytesWritten-user)
	}
	sizes := []int64{256 << 10, 1 << 20, 8 << 20}
	waa := make([]float64, len(sizes))
	for i, size := range sizes {
		waa[i] = run(size)
		t.Logf("cache %d KiB: WA-A %.3f", size>>10, waa[i])
		if i > 0 && waa[i] > waa[i-1] {
			t.Fatalf("WA-A rose from %.3f to %.3f as the cache grew to %d KiB", waa[i-1], waa[i], size>>10)
		}
	}
	if waa[len(waa)-1] >= waa[0] {
		t.Fatalf("8 MiB cache WA-A %.3f, want below the 256 KiB cache's %.3f", waa[len(waa)-1], waa[0])
	}
}

func parsePage(data []byte) (*cowtree.Node, []cowtree.Extent, bool) {
	p := &cowtree.Node{}
	exts, _, ok := p.ParseImage(data, pageMagic)
	return p, exts, ok
}

// pages returns every page of tr in id order.
func pages(tr *Tree) []*cowtree.Node {
	leaves, internals := tr.NodeCount()
	out := make([]*cowtree.Node, leaves+internals)
	for i := range out {
		out[i] = tr.Node(cowtree.NodeID(i + 1))
	}
	return out
}

func TestPageSerializationRoundTrip(t *testing.T) {
	var c cowtree.Core
	leaf := &cowtree.Node{Leaf: true, Serialized: cowtree.PageHeaderBytes}
	k1, k2 := kv.EncodeKey(1), kv.EncodeKey(2)
	c.InsertLeaf(leaf, cowtree.MakeRecord(k1, 7, 3, false), k1, []byte("abc"))
	c.InsertLeaf(leaf, cowtree.MakeRecord(k2, 9, 64, true), k2, nil)
	data := leaf.AppendImage(nil, pageMagic, nil)
	got, _, ok := parsePage(data)
	if !ok {
		t.Fatal("parse failed")
	}
	var kb [kv.KeySize]byte
	if len(got.Entries) != 2 || !bytes.Equal(got.Entries[0].Key(&kb), k1) {
		t.Fatalf("entries wrong: %v", got.Entries)
	}
	if string(got.Entries[0].Val()) != "abc" || got.Entries[0].Seq() != 7 {
		t.Fatal("entry 0 wrong")
	}
	if !got.Entries[1].Del() || got.Entries[1].Seq() != 9 || got.Entries[1].Vlen() != 64 {
		t.Fatal("tombstone entry wrong")
	}
	if got.Serialized != leaf.Serialized {
		t.Fatalf("parsed leaf accounts %d bytes, the original %d", got.Serialized, leaf.Serialized)
	}

	internal := &cowtree.Node{Interior: &cowtree.Interior{}}
	internal.InitRoot(1, kv.EncodeKey(10), 2)
	internal.InsertChild(1, kv.EncodeKey(20), 3)
	internal.Serialized = internal.PivotBytes()
	data = internal.AppendImage(nil, pageMagic, func(id cowtree.NodeID) cowtree.Extent {
		return cowtree.Extent{Start: int64(id) * 100, Pages: 4}
	})
	got, exts, ok := parsePage(data)
	if !ok || len(got.Children) != 3 || got.NumSeps() != 2 {
		t.Fatalf("internal round trip: %+v %v", got, ok)
	}
	// Parsed internal pages carry child disk extents (in-memory ids are
	// assigned during the recovery rebuild).
	if exts[2].Start != 300 || exts[2].Pages != 4 ||
		!bytes.Equal(sepBytes(got)[1], kv.EncodeKey(20)) {
		t.Fatal("internal content wrong")
	}

	if _, _, ok := parsePage([]byte{1, 2, 3}); ok {
		t.Fatal("short page should fail")
	}

	// Appending to a non-empty buffer must leave the prefix intact and
	// produce a parseable image after it (the serializer writes its
	// header relative to the append point, not index 0).
	prefixed := leaf.AppendImage([]byte("prefix"), pageMagic, nil)
	if string(prefixed[:6]) != "prefix" {
		t.Fatalf("serialize clobbered the buffer prefix: %q", prefixed[:6])
	}
	if got, _, ok := parsePage(prefixed[6:]); !ok || len(got.Entries) != 2 {
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
	if _, err := tr.Put(now, kv.EncodeKey(2), nil, 10); err != cowtree.ErrClosed {
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
	for _, p := range pages(tr) {
		if p.Resident {
			resident += int64(p.Serialized)
		}
	}
	if resident > tr.cfg.CacheBytes+int64(tr.cfg.LeafPageBytes) {
		t.Fatalf("cache over budget: %d > %d", resident, tr.cfg.CacheBytes)
	}
}
