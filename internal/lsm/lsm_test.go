package lsm

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/extfs"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// testEnv builds a small device+fs+db. capacity in MiB.
func testEnv(t *testing.T, capacityMiB int64, content bool, tweak func(*Config)) (*DB, *blockdev.Device, *extfs.FS) {
	return testEnvBW(t, capacityMiB, 1<<30, content, tweak)
}

// testEnvBW is testEnv with an explicit device write bandwidth.
func testEnvBW(t *testing.T, capacityMiB, writeBW int64, content bool, tweak func(*Config)) (*DB, *blockdev.Device, *extfs.FS) {
	t.Helper()
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  capacityMiB << 20,
		PageSize:      4096,
		PagesPerBlock: 32,
		Profile: flash.Profile{
			Name:       "lsm-test",
			ReadFixed:  5 * time.Microsecond,
			WriteFixed: 5 * time.Microsecond,
			ReadBW:     2 << 30,
			WriteBW:    writeBW,
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
	cfg := NewConfig(capacityMiB << 19) // dataset ~ half the device
	cfg.Content = content
	cfg.CPUPutTime = time.Microsecond
	cfg.CPUGetTime = time.Microsecond
	if tweak != nil {
		tweak(&cfg)
	}
	db, err := Open(fs, cfg, sim.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	return db, dev, fs
}

func TestGetAfterFlush(t *testing.T) {
	db, _, _ := testEnv(t, 16, true, func(c *Config) {
		c.MemtableBytes = 16 << 10 // rotate fast
	})
	var now sim.Duration
	var err error
	vals := map[uint64][]byte{}
	for i := uint64(0); i < 200; i++ {
		v := make([]byte, 100)
		kv.SynthValue(v, kv.EncodeKey(i), i)
		vals[i] = v
		now, err = db.Put(now, kv.EncodeKey(i), v, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	now, err = db.FlushAll(now)
	if err != nil {
		t.Fatal(err)
	}
	if db.IO().Flushes == 0 {
		t.Fatal("expected flushes")
	}
	for i := uint64(0); i < 200; i++ {
		_, got, found, err := db.Get(now, kv.EncodeKey(i))
		if err != nil || !found {
			t.Fatalf("key %d after flush: found=%v err=%v", i, found, err)
		}
		if !bytes.Equal(got, vals[i]) {
			t.Fatalf("key %d value mismatch after flush", i)
		}
	}
}

func TestCompactionsHappenAndLevelsFill(t *testing.T) {
	db, _, _ := testEnv(t, 32, false, func(c *Config) {
		c.MemtableBytes = 16 << 10
		c.BaseLevelBytes = 64 << 10
		c.TargetFileBytes = 16 << 10
	})
	var now sim.Duration
	var err error
	rng := sim.NewRNG(7)
	written := make(map[uint64]bool)
	for i := 0; i < 20000; i++ {
		id := rng.Uint64n(5000)
		written[id] = true
		now, err = db.Put(now, kv.EncodeKey(id), nil, 256)
		if err != nil {
			t.Fatal(err)
		}
	}
	now, err = db.FlushAll(now)
	if err != nil {
		t.Fatal(err)
	}
	io := db.IO()
	if io.Compactions == 0 {
		t.Fatal("expected compactions")
	}
	sizes := db.LevelSizes()
	deep := 0
	for li := 1; li < len(sizes); li++ {
		if sizes[li] > 0 {
			deep = li
		}
	}
	if deep < 2 {
		t.Fatalf("expected data in L2+, level sizes: %v", sizes)
	}
	// After compaction, every written key must still resolve; keys never
	// written must not appear.
	for id := uint64(0); id < 5000; id++ {
		_, _, found, err := db.Get(now, kv.EncodeKey(id))
		if err != nil {
			t.Fatal(err)
		}
		if found != written[id] {
			t.Fatalf("key %d: found=%v, want %v", id, found, written[id])
		}
	}
}

func TestWriteStallsAreCounted(t *testing.T) {
	// Slow device + tiny thresholds: flushes can't keep up and puts
	// must stall.
	// WAL off so the foreground thread is not throttled by its own
	// journal I/O and can outrun the flush worker.
	db, _, _ := testEnvBW(t, 16, 4<<20 /* 4 MiB/s */, false, func(c *Config) {
		c.MemtableBytes = 4 << 10
		c.MaxImmutableMemtables = 1
		c.L0CompactionTrigger = 2
		c.L0StallTrigger = 4
		c.ChunkPages = 4
		c.DisableWAL = true
	})
	var now sim.Duration
	var err error
	for i := 0; i < 3000; i++ {
		now, err = db.Put(now, kv.EncodeKey(uint64(i)), nil, 512)
		if err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().StallTime == 0 {
		t.Fatal("expected stall time under heavy ingest")
	}
	if db.IO().StallEvents == 0 {
		t.Fatal("expected stall events")
	}
}

func TestWAAIsAmplified(t *testing.T) {
	db, dev, _ := testEnv(t, 64, false, func(c *Config) {
		c.MemtableBytes = 32 << 10
		c.BaseLevelBytes = 128 << 10
		c.TargetFileBytes = 32 << 10
	})
	var now sim.Duration
	var err error
	rng := sim.NewRNG(3)
	for i := 0; i < 30000; i++ {
		now, err = db.Put(now, kv.EncodeKey(rng.Uint64n(8000)), nil, 256)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	user := db.Stats().UserBytesWritten
	host := dev.Counters().BytesWritten
	waa := float64(host) / float64(user)
	// Leveled LSM with WAL: expect well above 2 (WAL+flush) once
	// compaction has churned, and below a sane ceiling.
	if waa < 2.5 || waa > 40 {
		t.Fatalf("WA-A = %.2f outside sane range [2.5, 40]", waa)
	}
}

// TestDiscardLowersWAD mounts the filesystem with and without discard
// under the same file churn: load 128 MiB of 4000-byte values on a
// 256 MiB drive, then overwrite random keys four times over. With
// discard, the files the LSM deletes are trimmed, so GC finds their
// pages invalid instead of relocating them; nodiscard, the paper's
// mount mode, pays WA-D for them.
func TestDiscardLowersWAD(t *testing.T) {
	run := func(discard bool) float64 {
		ssd, err := flash.NewDevice(flash.Config{
			LogicalBytes:  256 << 20,
			PageSize:      4096,
			PagesPerBlock: 256,
			Profile:       flash.ProfileSSD1().Scaled(1024),
		})
		if err != nil {
			t.Fatal(err)
		}
		fs, err := extfs.Mount(blockdev.New(ssd), extfs.Options{Discard: discard})
		if err != nil {
			t.Fatal(err)
		}
		cfg := NewConfig(128 << 20)
		cfg.CPUPutTime *= 1024
		cfg.CPUGetTime *= 1024
		cfg.DelayedWriteBytesPerSec /= 1024
		db, err := Open(fs, cfg, sim.NewRNG(2))
		if err != nil {
			t.Fatal(err)
		}
		rng := sim.NewRNG(3)
		numKeys := uint64((128 << 20) / 4000)
		var now sim.Duration
		key := make([]byte, kv.KeySize)
		for id := uint64(0); id < numKeys; id++ {
			kv.AppendKey(key, id)
			if now, err = db.Put(now, key, nil, 4000); err != nil {
				t.Fatal(err)
			}
		}
		base := ssd.Stats()
		for i := uint64(0); i < numKeys*4; i++ {
			kv.AppendKey(key, rng.Uint64n(numKeys))
			if now, err = db.Put(now, key, nil, 4000); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.FlushAll(now); err != nil {
			t.Fatal(err)
		}
		return ssd.Stats().Sub(base).WAD()
	}
	trimmed, untrimmed := run(true), run(false)
	t.Logf("WA-D: discard %.3f, nodiscard %.3f", trimmed, untrimmed)
	if trimmed >= untrimmed {
		t.Fatalf("discard WA-D %.3f, want below nodiscard's %.3f", trimmed, untrimmed)
	}
}

func TestOutOfSpaceSurfaces(t *testing.T) {
	db, _, _ := testEnv(t, 16, false, func(c *Config) {
		c.MemtableBytes = 64 << 10
	})
	var now sim.Duration
	var err error
	// Write far more than the device can hold.
	for i := 0; i < 200000; i++ {
		now, err = db.Put(now, kv.EncodeKey(uint64(i)), nil, 4096)
		if err != nil {
			break
		}
	}
	if err == nil {
		t.Fatal("expected out-of-space error")
	}
	if !errors.Is(err, extfs.ErrNoSpace) {
		t.Fatalf("error %v is not ErrNoSpace", err)
	}
	if db.fatal == nil {
		t.Fatal("fatal error should be sticky")
	}
	if _, err := db.Put(now, kv.EncodeKey(1), nil, 10); err == nil {
		t.Fatal("puts after fatal error should fail")
	}
}

func TestCloseRejectsFurtherOps(t *testing.T) {
	db, _, _ := testEnv(t, 16, false, nil)
	now, err := db.Put(0, kv.EncodeKey(1), nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Close(now); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put(now, kv.EncodeKey(2), nil, 10); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
	if _, _, _, err := db.Get(now, kv.EncodeKey(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed on Get, got %v", err)
	}
}

func TestWALSegmentsAreRotatedAndCleaned(t *testing.T) {
	db, _, fs := testEnv(t, 16, false, func(c *Config) {
		c.MemtableBytes = 8 << 10
	})
	var now sim.Duration
	var err error
	for i := 0; i < 500; i++ {
		now, err = db.Put(now, kv.EncodeKey(uint64(i)), nil, 128)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	// Segments are recycled, not deleted: the on-disk count must stay
	// bounded by active + flush pipeline depth, however many rotations
	// happened.
	walFiles := 0
	for _, name := range fs.List() {
		if len(name) >= 3 && name[:3] == "wal" {
			walFiles++
		}
	}
	if walFiles == 0 || walFiles > db.cfg.MaxImmutableMemtables+2 {
		t.Fatalf("%d WAL segments on disk, want 1..%d (recycled pool)",
			walFiles, db.cfg.MaxImmutableMemtables+2)
	}
}

func TestDisableWAL(t *testing.T) {
	db, dev, _ := testEnv(t, 16, false, func(c *Config) {
		c.DisableWAL = true
	})
	var now sim.Duration
	var err error
	before := dev.Counters().BytesWritten
	for i := 0; i < 100; i++ {
		now, err = db.Put(now, kv.EncodeKey(uint64(i)), nil, 100)
		if err != nil {
			t.Fatal(err)
		}
	}
	if dev.Counters().BytesWritten != before {
		t.Fatal("puts without WAL and without rotation should not write")
	}
	_ = now
}

// Property: the DB agrees with a reference map under random workloads
// (accounting mode: presence/absence only).
func TestLevelInvariants(t *testing.T) {
	db, _, _ := testEnv(t, 32, false, func(c *Config) {
		c.MemtableBytes = 8 << 10
		c.BaseLevelBytes = 32 << 10
		c.TargetFileBytes = 8 << 10
	})
	var now sim.Duration
	var err error
	rng := sim.NewRNG(11)
	for i := 0; i < 10000; i++ {
		now, err = db.Put(now, kv.EncodeKey(rng.Uint64n(3000)), nil, 128)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.FlushAll(now); err != nil {
		t.Fatal(err)
	}
	// Sorted levels: files ordered and non-overlapping.
	for li := 1; li < len(db.levels); li++ {
		lvl := db.levels[li]
		for i := 1; i < len(lvl); i++ {
			if bytes.Compare(lvl[i-1].Largest(), lvl[i].Smallest()) >= 0 {
				t.Fatalf("level %d files overlap or out of order", li)
			}
		}
	}
}

// BenchmarkPut times the LSM's write path end to end: 512-byte puts
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
	db, err := Open(fs, NewConfig(128<<20), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	key := make([]byte, kv.KeySize)
	var now sim.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.AppendKey(key, rng.Uint64n(50000))
		if now, err = db.Put(now, key, nil, 512); err != nil {
			b.Fatal(err)
		}
	}
}
