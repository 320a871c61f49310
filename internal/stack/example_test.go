package stack_test

import (
	"fmt"
	"log"

	"ptsbench/internal/engine"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
)

// ExampleBuild opens a storage engine on a simulated flash stack, writes
// and reads real data, and prints the I/O accounting the benchmark
// harness is built on.
func ExampleBuild() {
	// A 1 GiB simulated enterprise SSD with a content store, so reads
	// return real bytes, and the RocksDB-like LSM engine opened on it by
	// its registry name, sized for a ~64 MiB dataset with no tunable
	// overrides.
	st, err := stack.Build(stack.Layout{
		Flash:   flash.Config{LogicalBytes: 1 << 30, Profile: flash.ProfileSSD1().Scaled(64)},
		Engine:  "lsm",
		Sizing:  engine.Sizing{DatasetBytes: 64 << 20},
		RNG:     sim.NewRNG(42),
		Content: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	db := st.Engine

	// All engine calls thread virtual time: they take the current
	// virtual timestamp and return the operation's completion time.
	var now sim.Duration
	for id := uint64(0); id < 1000; id++ {
		value := fmt.Sprintf("value-for-key-%d", id)
		now, err = db.Put(now, kv.EncodeKey(id), []byte(value), 0)
		if err != nil {
			log.Fatal(err)
		}
	}

	// Read a few keys back.
	for _, id := range []uint64{0, 500, 999} {
		var val []byte
		var found bool
		now, val, found, err = db.Get(now, kv.EncodeKey(id))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("key %3d -> %q (found=%v)\n", id, val, found)
	}

	// Delete and verify.
	now, err = db.Delete(now, kv.EncodeKey(500))
	if err != nil {
		log.Fatal(err)
	}
	now, _, found, err := db.Get(now, kv.EncodeKey(500))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("key 500 after delete: found=%v\n", found)

	// Flush everything and look at the stack's accounting: this is the
	// instrumentation the paper's metrics are computed from.
	now, err = db.FlushAll(now)
	if err != nil {
		log.Fatal(err)
	}
	stats := db.Stats()
	dev := st.Sim.Counters()
	smart := st.Sim.SSD().Stats()
	fmt.Printf("\nvirtual time elapsed: %v\n", now)
	fmt.Printf("user puts: %d, user bytes: %d\n", stats.Puts, stats.UserBytesWritten)
	fmt.Printf("host writes (iostat): %d bytes in %d ops\n", dev.BytesWritten, dev.WriteOps)
	fmt.Printf("flash programs (SMART): %d pages, WA-D %.3f\n",
		smart.FlashPagesWritten, smart.WAD())
	fmt.Printf("WA-A: %.2f\n", float64(dev.BytesWritten)/float64(stats.UserBytesWritten))
	fmt.Printf("engine disk usage: %d bytes\n", db.DiskUsageBytes())

	// Output:
	// key   0 -> "value-for-key-0" (found=true)
	// key 500 -> "value-for-key-500" (found=true)
	// key 999 -> "value-for-key-999" (found=true)
	// key 500 after delete: found=false
	//
	// virtual time elapsed: 66.62613ms
	// user puts: 1001, user bytes: 32906
	// host writes (iostat): 172032 bytes in 17 ops
	// flash programs (SMART): 42 pages, WA-D 1.000
	// WA-A: 5.23
	// engine disk usage: 131072 bytes
}
