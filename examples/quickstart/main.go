// Quickstart: open a storage engine on a simulated flash stack, write
// and read real data, and inspect the I/O accounting that the benchmark
// harness is built on.
package main

import (
	"fmt"
	"log"

	"ptsbench"
)

func main() {
	// A 1 GiB simulated enterprise SSD with a content store, so reads
	// return real bytes.
	stack, err := ptsbench.NewStack(ptsbench.StackOptions{
		CapacityBytes: 1 << 30,
		ContentStore:  true,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Open the RocksDB-like LSM engine by its registry name, sized for a
	// ~64 MiB dataset, with no tunable overrides.
	db, err := ptsbench.OpenEngine(stack, "lsm", 64<<20, nil, 42)
	if err != nil {
		log.Fatal(err)
	}

	// All engine calls thread virtual time: they take the current
	// virtual timestamp and return the operation's completion time.
	var now ptsbench.VirtualTime
	for id := uint64(0); id < 1000; id++ {
		value := fmt.Sprintf("value-for-key-%d", id)
		now, err = db.Put(now, ptsbench.EncodeKey(id), []byte(value), 0)
		if err != nil {
			log.Fatal(err)
		}
	}

	// Read a few keys back.
	for _, id := range []uint64{0, 500, 999} {
		var val []byte
		var found bool
		now, val, found, err = db.Get(now, ptsbench.EncodeKey(id))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("key %3d -> %q (found=%v)\n", id, val, found)
	}

	// Delete and verify. Delete is an optional engine surface (every
	// built-in engine has it), so it is asserted, not assumed.
	del, ok := db.(interface {
		Delete(now ptsbench.VirtualTime, key []byte) (ptsbench.VirtualTime, error)
	})
	if !ok {
		log.Fatal("engine does not support Delete")
	}
	now, err = del.Delete(now, ptsbench.EncodeKey(500))
	if err != nil {
		log.Fatal(err)
	}
	now, _, found, err := db.Get(now, ptsbench.EncodeKey(500))
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
	dev := stack.BlockDev.Counters()
	smart := stack.SSD.Stats()
	fmt.Printf("\nvirtual time elapsed: %v\n", now)
	fmt.Printf("user puts: %d, user bytes: %d\n", stats.Puts, stats.UserBytesWritten)
	fmt.Printf("host writes (iostat): %d bytes in %d ops\n", dev.BytesWritten, dev.WriteOps)
	fmt.Printf("flash programs (SMART): %d pages, WA-D %.3f\n",
		smart.FlashPagesWritten, smart.WAD())
	fmt.Printf("WA-A: %.2f\n", float64(dev.BytesWritten)/float64(stats.UserBytesWritten))
	fmt.Printf("engine disk usage: %d bytes\n", db.DiskUsageBytes())
}
