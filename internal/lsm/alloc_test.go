package lsm

import (
	"testing"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/extfs"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// TestSteadyStateOpAllocs pins the allocation-free op loop: once the
// engine is warm, a QD-1 Get performs zero heap allocations and a Put
// allocates nothing beyond the (amortized, >1/256 ops) memtable arena
// chunk refills. The memtable is sized so no rotation fires during the
// measured window — rotation/flush machinery is amortized background
// work, not the op loop; the repository benchmark's lsm-write cell
// (benchmark/, allocs_per_op) measures the two together.
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

	// Warm every lookup structure (lazily built Bloom filters included),
	// then require strictly zero allocations per Get.
	for i := uint64(0); i < keys; i += 97 {
		kv.AppendKey(key, i)
		if now, _, _, err = db.Get(now, key); err != nil {
			t.Fatal(err)
		}
	}
	id = 0
	getAllocs := testing.AllocsPerRun(500, func() {
		kv.AppendKey(key, (id*97)%keys)
		id++
		var err error
		if now, _, _, err = db.Get(now, key); err != nil {
			t.Fatal(err)
		}
	})
	if getAllocs != 0 {
		t.Fatalf("steady-state Get allocates %.3f objects/op, want 0", getAllocs)
	}
}
