package betree

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
			Name:       "be-test",
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

// smallNodes shrinks node/leaf budgets so tiny workloads exercise
// splits, buffer flushes and multi-level structure.
func smallNodes(c *Config) {
	c.NodeBytes = 2 << 10
	c.LeafPageBytes = 1 << 10
	c.Epsilon = 0.6
}

func TestBufferFlushesBatchMessages(t *testing.T) {
	tr, _, _ := testEnv(t, 32, false, smallNodes)
	var now sim.Duration
	var err error
	for i := uint64(0); i < 4000; i++ {
		now, err = tr.Put(now, kv.EncodeKey(i%1000), nil, 64)
		if err != nil {
			t.Fatal(err)
		}
	}
	io := tr.IO()
	if io.BufferFlushes == 0 {
		t.Fatal("expected buffer flushes")
	}
	if io.FlushedMessages <= io.BufferFlushes {
		t.Fatalf("flushes should batch messages: %d messages over %d flushes",
			io.FlushedMessages, io.BufferFlushes)
	}
	// The batching factor is the whole point of the design.
	if factor := float64(io.FlushedMessages) / float64(io.BufferFlushes); factor < 2 {
		t.Fatalf("batching factor %.1f, want >= 2", factor)
	}
}

func TestSplitsAndDepthGrowth(t *testing.T) {
	tr, _, _ := testEnv(t, 32, false, smallNodes)
	var now sim.Duration
	var err error
	for i := uint64(0); i < 4000; i++ {
		now, err = tr.Put(now, kv.EncodeKey(i), nil, 20)
		if err != nil {
			t.Fatal(err)
		}
	}
	if tr.IO().LeafSplits == 0 {
		t.Fatal("expected leaf splits")
	}
	if tr.Depth() < 2 {
		t.Fatalf("depth %d, want >= 2", tr.Depth())
	}
	// Every key still present (some answered from buffers, some from
	// leaves).
	for i := uint64(0); i < 4000; i++ {
		_, _, found, err := tr.Get(now, kv.EncodeKey(i))
		if err != nil || !found {
			t.Fatalf("key %d lost after splits: %v %v", i, found, err)
		}
	}
	leaves, interiors := tr.NodeCount()
	if leaves < 10 || interiors < 1 {
		t.Fatalf("node counts: %d leaves, %d interiors", leaves, interiors)
	}
}

func TestGetServedFromBuffer(t *testing.T) {
	tr, _, _ := testEnv(t, 32, false, smallNodes)
	var now sim.Duration
	var err error
	// Grow past the root-leaf stage.
	for i := uint64(0); i < 2000; i++ {
		now, err = tr.Put(now, kv.EncodeKey(i), nil, 20)
		if err != nil {
			t.Fatal(err)
		}
	}
	if tr.Depth() < 2 {
		t.Skip("tree did not grow interior levels")
	}
	// A fresh write sits in the root buffer; reading it back must not
	// touch a leaf.
	now, err = tr.Put(now, kv.EncodeKey(5000), nil, 20)
	if err != nil {
		t.Fatal(err)
	}
	hitsBefore := tr.IO().BufferHits
	_, _, found, err := tr.Get(now, kv.EncodeKey(5000))
	if err != nil || !found {
		t.Fatalf("fresh key: %v %v", found, err)
	}
	if tr.IO().BufferHits != hitsBefore+1 {
		t.Fatalf("expected a buffer hit, got %d -> %d", hitsBefore, tr.IO().BufferHits)
	}
}

func TestEpsilonOneDegeneratesToBTree(t *testing.T) {
	tr, _, _ := testEnv(t, 32, false, func(c *Config) {
		smallNodes(c)
		c.Epsilon = 1.0
	})
	if tr.bufferMax != 0 {
		t.Fatalf("ε=1 should leave no buffer budget, got %d", tr.bufferMax)
	}
	var now sim.Duration
	var err error
	for i := uint64(0); i < 2000; i++ {
		now, err = tr.Put(now, kv.EncodeKey(i), nil, 20)
		if err != nil {
			t.Fatal(err)
		}
	}
	if tr.IO().BufferFlushes != 0 {
		t.Fatalf("ε=1 should never flush buffers, got %d", tr.IO().BufferFlushes)
	}
	if tr.BufferedBytes() != 0 {
		t.Fatalf("ε=1 should buffer nothing, got %d bytes", tr.BufferedBytes())
	}
	for i := uint64(0); i < 2000; i += 37 {
		_, _, found, err := tr.Get(now, kv.EncodeKey(i))
		if err != nil || !found {
			t.Fatalf("key %d: %v %v", i, found, err)
		}
	}
}

func TestSmallerEpsilonBatchesMore(t *testing.T) {
	run := func(eps float64) float64 {
		tr, _, _ := testEnv(t, 64, false, func(c *Config) {
			c.NodeBytes = 8 << 10
			c.LeafPageBytes = 2 << 10
			c.Epsilon = eps
		})
		var now sim.Duration
		var err error
		rng := sim.NewRNG(5)
		for i := 0; i < 20000; i++ {
			now, err = tr.Put(now, kv.EncodeKey(rng.Uint64n(5000)), nil, 64)
			if err != nil {
				t.Fatal(err)
			}
		}
		io := tr.IO()
		if io.BufferFlushes == 0 {
			t.Fatalf("ε=%.2f: no flushes", eps)
		}
		return float64(io.FlushedMessages) / float64(io.BufferFlushes)
	}
	small := run(0.45)
	large := run(0.85)
	if small <= large {
		t.Fatalf("smaller ε should batch more per flush: ε=0.45 -> %.1f, ε=0.85 -> %.1f",
			small, large)
	}
}

func TestEvictionUnderCachePressure(t *testing.T) {
	tr, dev, _ := testEnv(t, 32, false, func(c *Config) {
		smallNodes(c)
		c.CacheBytes = 16 << 10
		c.DisableJournal = true
	})
	var now sim.Duration
	var err error
	rng := sim.NewRNG(1)
	for i := 0; i < 8000; i++ {
		now, err = tr.Put(now, kv.EncodeKey(rng.Uint64n(4000)), nil, 128)
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
	misses := tr.IO().CacheMisses
	for i := uint64(0); i < 4000; i += 131 {
		if _, _, _, err := tr.Get(now, kv.EncodeKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.IO().CacheMisses == misses {
		t.Fatal("expected cache misses when reading evicted leaves")
	}
}

func TestCheckpointRunsAndJournalRecycled(t *testing.T) {
	tr, _, fs := testEnv(t, 32, false, func(c *Config) {
		smallNodes(c)
		c.CheckpointInterval = 10 * time.Millisecond
	})
	var now sim.Duration
	var err error
	for i := 0; i < 5000; i++ {
		now, err = tr.Put(now, kv.EncodeKey(uint64(i%800)), nil, 256)
		if err != nil {
			t.Fatal(err)
		}
	}
	now = tr.Quiesce(now)
	if tr.IO().Checkpoints == 0 {
		t.Fatal("expected periodic checkpoints")
	}
	journals := 0
	for _, name := range fs.List() {
		if len(name) >= 8 && name[:8] == "bjournal" {
			journals++
		}
	}
	if journals == 0 || journals > 3 {
		t.Fatalf("%d journal files, want 1..3 (recycled pool)", journals)
	}
}

func TestFlushAllWritesEverything(t *testing.T) {
	tr, _, _ := testEnv(t, 16, false, smallNodes)
	var now sim.Duration
	var err error
	for i := 0; i < 1000; i++ {
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
		t.Fatalf("%d dirty nodes after FlushAll", n)
	}
	// Buffered messages survive FlushAll in the interior images; reads
	// still see them.
	for i := uint64(0); i < 1000; i += 97 {
		_, _, found, err := tr.Get(end, kv.EncodeKey(i))
		if err != nil || !found {
			t.Fatalf("key %d after FlushAll: %v %v", i, found, err)
		}
	}
}

func TestWALowerThanPagePerUpdate(t *testing.T) {
	// The Bε-tree's reason to exist: leaf writes carry batches, so the
	// steady-state application WA sits well below one leaf page per
	// update (the B+Tree pays ~page/value; see TestWAAStableOverTime
	// there).
	tr, dev, _ := testEnv(t, 64, false, func(c *Config) {
		c.CacheBytes = 256 << 10
		c.DisableJournal = true
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
	if _, err := tr.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	c0 := dev.Counters().BytesWritten
	u0 := tr.Stats().UserBytesWritten
	for i := 0; i < int(keys)*4; i++ {
		now, err = tr.Put(now, kv.EncodeKey(rng.Uint64n(keys)), nil, 1024)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tr.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	waa := float64(dev.Counters().BytesWritten-c0) / float64(tr.Stats().UserBytesWritten-u0)
	if waa > 12 {
		t.Fatalf("WA-A %.2f too high for a buffered tree", waa)
	}
	if waa < 1 {
		t.Fatalf("WA-A %.2f below 1 is impossible with checkpoints", waa)
	}
}

func TestNodeSerializationRoundTrip(t *testing.T) {
	var c cowtree.Core
	leaf := &cowtree.Node{Leaf: true, Serialized: cowtree.PageHeaderBytes}
	k1, k2 := kv.EncodeKey(1), kv.EncodeKey(2)
	c.InsertLeaf(leaf, cowtree.MakeRecord(k1, 7, 3, false), k1, []byte("abc"))
	c.InsertLeaf(leaf, cowtree.MakeRecord(k2, 9, 64, true), k2, nil)
	data := leaf.AppendImage(nil, nodeMagic, nil)
	got, _, ok := parseNode(data)
	if !ok {
		t.Fatal("parse failed")
	}
	if len(got.Entries) != 2 || !bytes.Equal(msgKey(&got.Entries[0]), k1) {
		t.Fatalf("entries wrong: %v", got.Entries)
	}
	if string(got.Entries[0].Val()) != "abc" || got.Entries[0].Seq() != 7 {
		t.Fatal("entry 0 wrong")
	}
	if !got.Entries[1].Del() || got.Entries[1].Seq() != 9 || got.Entries[1].Vlen() != 64 {
		t.Fatal("tombstone entry wrong")
	}

	interior := &cowtree.Node{Interior: &cowtree.Interior{}}
	interior.InitRoot(1, kv.EncodeKey(10), 2)
	interior.InsertChild(1, kv.EncodeKey(20), 3)
	c.NewBuffers(interior)
	c.InsertMessage(interior, cowtree.MakeRecord(kv.EncodeKey(5), 11, 32, false), nil, nil, true)
	c.InsertMessage(interior, cowtree.MakeRecord(kv.EncodeKey(15), 12, 16, true), nil, nil, true)
	interior.Serialized = interior.PivotBytes() + interior.Buf.Bytes
	data = interior.AppendImage(nil, nodeMagic, func(id cowtree.NodeID) cowtree.Extent {
		return cowtree.Extent{Start: int64(id) * 100, Pages: 4}
	})
	got, exts, ok := parseNode(data)
	if !ok || len(got.Children) != 3 || got.NumSeps() != 2 {
		t.Fatalf("interior round trip: %+v %v", got, ok)
	}
	if exts[2].Start != 300 || exts[2].Pages != 4 {
		t.Fatal("child extents wrong")
	}
	if msgs := got.Buf.Msgs; len(msgs) != 3 || len(msgs[0]) != 1 || msgs[0][0].Seq() != 11 ||
		len(msgs[1]) != 1 || !msgs[1][0].Del() || msgs[2] != nil {
		t.Fatalf("buffer round trip wrong: %+v", msgs)
	}
	if got.Buf.Bytes != interior.Buf.Bytes {
		t.Fatalf("buffered bytes %d != %d", got.Buf.Bytes, interior.Buf.Bytes)
	}

	prefixed := interior.AppendImage([]byte("prefix"), nodeMagic, nil)
	if string(prefixed[:6]) != "prefix" {
		t.Fatalf("serialize clobbered the buffer prefix: %q", prefixed[:6])
	}
	if got, _, ok := parseNode(prefixed[6:]); !ok || len(got.Buf.Msgs[0])+len(got.Buf.Msgs[1]) != 2 {
		t.Fatal("image appended after a prefix failed to parse")
	}

	if _, _, ok := parseNode([]byte{1, 2, 3}); ok {
		t.Fatal("short node should fail")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (sim.Duration, int64, IOStats) {
		tr, dev, _ := testEnv(t, 32, false, func(c *Config) {
			smallNodes(c)
			c.CacheBytes = 64 << 10
		})
		var now sim.Duration
		var err error
		rng := sim.NewRNG(9)
		for i := 0; i < 6000; i++ {
			now, err = tr.Put(now, kv.EncodeKey(rng.Uint64n(1500)), nil, 300)
			if err != nil {
				t.Fatal(err)
			}
		}
		end, err := tr.FlushAll(now)
		if err != nil {
			t.Fatal(err)
		}
		return end, dev.Counters().BytesWritten, tr.IO()
	}
	t1, b1, io1 := run()
	t2, b2, io2 := run()
	if t1 != t2 || b1 != b2 || io1 != io2 {
		t.Fatalf("nondeterministic: %v/%d/%+v vs %v/%d/%+v", t1, b1, io1, t2, b2, io2)
	}
}

func TestLRUConsistency(t *testing.T) {
	tr, _, _ := testEnv(t, 32, false, func(c *Config) {
		smallNodes(c)
		c.CacheBytes = 24 << 10
	})
	var now sim.Duration
	var err error
	rng := sim.NewRNG(4)
	for i := 0; i < 6000; i++ {
		now, err = tr.Put(now, kv.EncodeKey(rng.Uint64n(2000)), nil, 64)
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestSerializedInvariants(t *testing.T) {
	tr, _, _ := testEnv(t, 32, false, smallNodes)
	var now sim.Duration
	var err error
	rng := sim.NewRNG(6)
	for i := 0; i < 8000; i++ {
		now, err = tr.Put(now, kv.EncodeKey(rng.Uint64n(3000)), nil, 100)
		if err != nil {
			t.Fatal(err)
		}
	}
	_ = now
	checkTree(t, tr)
}

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

func TestConfigValidation(t *testing.T) {
	if _, err := (Config{Epsilon: 0, Tuning: cowtree.Tuning{LeafPageBytes: 1}}).Validate(); err == nil {
		t.Fatal("ε=0 should fail")
	}
	if _, err := (Config{Epsilon: 1.5, Tuning: cowtree.Tuning{LeafPageBytes: 1}}).Validate(); err == nil {
		t.Fatal("ε>1 should fail")
	}
	if _, err := (Config{Epsilon: 0.5}).Validate(); err == nil {
		t.Fatal("zero leaf size should fail")
	}
	c, err := (Config{Epsilon: 0.5, Tuning: cowtree.Tuning{LeafPageBytes: 4 << 10}}).Validate()
	if err != nil {
		t.Fatal(err)
	}
	if c.pivotBudget() < minPivotBytes || c.bufferBudget() < 0 {
		t.Fatalf("budgets out of range: pivot %d buffer %d", c.pivotBudget(), c.bufferBudget())
	}
	one, err := (Config{Epsilon: 1, Tuning: cowtree.Tuning{LeafPageBytes: 4 << 10}}).Validate()
	if err != nil {
		t.Fatal(err)
	}
	if one.bufferBudget() != 0 {
		t.Fatalf("ε=1 buffer budget %d, want 0", one.bufferBudget())
	}
}

// BenchmarkPut times the Bε-tree's write path end to end: 512-byte puts
// of random keys among 50,000, configured for a 128 MiB dataset on a
// 512 MiB simulated drive, with whatever background work and FTL GC the
// puts trigger.
func BenchmarkPut(b *testing.B) {
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  512 << 20,
		PageSize:      4096,
		PagesPerBlock: 256,
		Profile:       flash.ProfileSSD1().Scaled(512),
	})
	if err != nil {
		b.Fatal(err)
	}
	fs, err := extfs.Mount(blockdev.New(ssd), extfs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := Open(fs, NewConfig(128<<20))
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	key := make([]byte, kv.KeySize)
	var now sim.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.AppendKey(key, rng.Uint64n(50000))
		if now, err = tr.Put(now, key, nil, 512); err != nil {
			b.Fatal(err)
		}
	}
}
