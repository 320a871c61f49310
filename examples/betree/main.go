// Betree: a walk-through of the Bε-tree engine — the third tree
// structure, sitting between the write-optimized LSM and the
// read-optimized B+Tree.
//
// A Bε-tree is a copy-on-write B-tree whose interior nodes spend most
// of their capacity on per-child MESSAGE BUFFERS: a put appends a
// message to the root's buffer, and when a buffer fills, the busiest
// child's batch of messages is pushed one level down. Messages reach
// the leaves in batches, so each leaf write-back carries many updates —
// the write-amplification win — while point reads still descend one
// root-to-leaf path, merging buffered messages on the way (a fresh
// write is answered straight from a buffer, without leaf I/O).
//
// The ε knob splits each interior node's byte budget: NodeBytes^ε goes
// to pivots (fanout), the rest to buffers. Small ε = big buffers, more
// batching, deeper tree. ε = 1 = all pivots, no buffers — a B+Tree.
//
// This example drives the same update-heavy churn through three ε
// settings and prints the flush batching factor and the write
// amplification each produces. Run the full trade-off figure with:
//
//	go run ./cmd/ptsbench run -figure betradeoff
package main

import (
	"fmt"
	"log"
	"strconv"

	"ptsbench"
	"ptsbench/internal/betree"
)

func main() {
	fmt.Println("Bε-tree: update churn under three buffer fractions (ε)")
	fmt.Println()
	fmt.Printf("%-6s %10s %12s %14s %10s %8s\n",
		"ε", "depth", "flushes", "msgs/flush", "WA-A", "time")
	for _, eps := range []float64{0.4, 0.6, 1.0} {
		runOne(eps)
	}
	fmt.Println()
	fmt.Println("Smaller ε batches more messages per leaf write-back (lower WA-A,")
	fmt.Println("cheaper updates); ε = 1.0 degenerates to a B+Tree: no buffers, a")
	fmt.Println("page write per leaf touch. Unlike LSM compaction, a buffer flush")
	fmt.Println("moves a key-contiguous batch into ONE child — no rewriting of")
	fmt.Println("unrelated cold data — so the LBA footprint stays as confined as")
	fmt.Println("the B+Tree's (see fig4).")
}

func runOne(eps float64) {
	// A 1 GiB simulated enterprise SSD. Accounting mode (no content
	// store): values are charged but not materialized, like the
	// benchmark harness runs.
	stack, err := ptsbench.NewStack(ptsbench.StackOptions{CapacityBytes: 1 << 30})
	if err != nil {
		log.Fatal(err)
	}

	// ε travels as a declarative tunable, the same string a spec file
	// carries. The generic handle is enough to drive the engine; the
	// walk-through also reads the Bε-tree's own counters, so it asserts
	// the concrete type.
	eng, err := ptsbench.OpenEngine(stack, "betree", 64<<20,
		map[string]string{"epsilon": strconv.FormatFloat(eps, 'g', -1, 64)}, 1)
	if err != nil {
		log.Fatal(err)
	}
	tr := eng.(*betree.Tree)

	// Load 16k keys, then update-churn 4x over them: the same shape as
	// the paper's steady-state phase.
	var now ptsbench.VirtualTime
	const keys = 16384
	for id := uint64(0); id < keys; id++ {
		if now, err = tr.Put(now, ptsbench.EncodeKey(id), nil, 1024); err != nil {
			log.Fatal(err)
		}
	}
	rng := uint64(1)
	for i := 0; i < 4*keys; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407 // LCG: deterministic churn
		id := (rng >> 33) % keys
		if now, err = tr.Put(now, ptsbench.EncodeKey(id), nil, 1024); err != nil {
			log.Fatal(err)
		}
	}
	if now, err = tr.FlushAll(now); err != nil {
		log.Fatal(err)
	}

	io := tr.IO()
	stats := tr.Stats()
	dev := stack.BlockDev.Counters()
	batching := 0.0
	if io.BufferFlushes > 0 {
		batching = float64(io.FlushedMessages) / float64(io.BufferFlushes)
	}
	waa := float64(dev.BytesWritten) / float64(stats.UserBytesWritten)
	fmt.Printf("%-6.1f %10d %12d %14.1f %10.2f %8v\n",
		eps, tr.Depth(), io.BufferFlushes, batching, waa, now)
}
