package lsm

import (
	"runtime"
	"testing"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/extfs"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// TestSteadyStateOpAllocs pins the allocation-free write loop: once the
// engine is warm, a Put allocates nothing beyond the (amortized, >1/256
// ops) memtable arena chunk refills. The memtable is sized so no
// rotation fires during the measured window — rotation/flush machinery
// is amortized background work, not the op loop; the repository
// benchmark's lsm-write cell (benchmark/, allocs_per_op) measures the two
// together. TestGetAllocs gates the read side.
func TestSteadyStateOpAllocs(t *testing.T) {
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  256 << 20,
		PageSize:      4096,
		PagesPerBlock: 256,
		Profile:       flash.ProfileSSD1().Scaled(1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := extfs.Mount(blockdev.New(ssd), extfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := NewConfig(64 << 20)
	cfg.MemtableBytes = 1 << 30 // no rotation during the measured window
	db, err := Open(fs, cfg, sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	const keys = 20000
	key := make([]byte, kv.KeySize)
	var now sim.Duration
	for id := uint64(0); id < keys; id++ {
		kv.AppendKey(key, id)
		if now, err = db.Put(now, key, nil, 400); err != nil {
			t.Fatal(err)
		}
	}

	var id uint64
	putAllocs := testing.AllocsPerRun(500, func() {
		kv.AppendKey(key, id%keys)
		id++
		var err error
		if now, err = db.Put(now, key, nil, 400); err != nil {
			t.Fatal(err)
		}
	})
	// Arena chunk refills amortize to well under 0.1 allocations per op.
	if putAllocs > 0.1 {
		t.Fatalf("steady-state Put allocates %.3f objects/op, want ~0", putAllocs)
	}
}

// TestSteadyStatePutBytes gates the bytes and the heap objects a Put
// allocates over a window long enough to rotate, flush and compact many
// times: flushed memtables' arena chunks and structs, compacted tables'
// side-index arrays and structs, builders, background jobs and removed
// files' extent lists are recycled within the DB and its filesystem, so
// the background work that TestSteadyStateOpAllocs keeps out of its
// window allocates almost nothing either. What is left is about two
// objects per table written (its extfs.File and its file name) and the
// side index's pools growing with the live tables, which hold only the
// key and seq columns (the others are derived): 4.7 B and 0.057 objects
// per Put, gated at 6.3 B and 0.08 (about a third above the bytes).
func TestSteadyStatePutBytes(t *testing.T) {
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  256 << 20,
		PageSize:      4096,
		PagesPerBlock: 256,
		Profile:       flash.ProfileSSD1().Scaled(1024),
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := extfs.Mount(blockdev.New(ssd), extfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := Open(fs, NewConfig(64<<20), sim.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	const keys = 40000
	rng := sim.NewRNG(2)
	key := make([]byte, kv.KeySize)
	var now sim.Duration
	put := func(n int) {
		for i := 0; i < n; i++ {
			kv.AppendKey(key, rng.Uint64n(keys))
			if now, err = db.Put(now, key, nil, 400); err != nil {
				t.Fatal(err)
			}
		}
	}
	put(4 * keys) // fill the levels and the free lists

	const window = 2 * keys
	before := db.IO()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	put(window)
	runtime.ReadMemStats(&m1)
	after := db.IO()
	if after.Flushes-before.Flushes < 20 || after.Compactions-before.Compactions < 10 {
		t.Fatalf("window ran %d flushes and %d compactions, want a steady state with many of each",
			after.Flushes-before.Flushes, after.Compactions-before.Compactions)
	}
	perPut := float64(m1.TotalAlloc-m0.TotalAlloc) / window
	mallocs := float64(m1.Mallocs-m0.Mallocs) / window
	t.Logf("%.1f B/Put, %.4f mallocs/Put over %d puts, %d flushes, %d compactions", perPut, mallocs, window,
		after.Flushes-before.Flushes, after.Compactions-before.Compactions)
	if perPut > 6.3 {
		t.Fatalf("steady-state Put allocates %.1f B/op with flushes and compactions, want < 6.3", perPut)
	}
	if mallocs > 0.08 {
		t.Fatalf("steady-state Put allocates %.4f objects/op with flushes and compactions, want < 0.08", mallocs)
	}
}
