// Parallelism: sweep host queue depth against the internal channel/way
// geometry of a simulated SSD, using the concurrent experiment grid.
//
// The scenario reproduces the observation that motivates queue-depth-
// aware benchmarking (Didona et al. §6, and Roh et al.'s B+-tree work):
// a tree structure evaluated at queue depth 1 uses a single internal
// lane of the drive, so its measured throughput says little about what
// the same structure sustains when the host keeps the lane array busy.
// Every (engine, queue-depth) cell below is an independent deterministic
// experiment; core.RunGrid runs them concurrently across host cores and
// the results are identical to running each cell alone.
package main

import (
	"fmt"
	"log"
	"time"

	"ptsbench"
)

func main() {
	// A 4-channel x 4-way drive: 16 internal lanes. Logical pages
	// stripe round-robin over the lanes, each lane serving 1/16 of the
	// device bandwidth.
	device := ptsbench.DefaultDevice()
	device.Profile = device.Profile.WithParallelism(4, 4)

	depths := []int{1, 2, 4, 8, 16, 32}
	engines := []ptsbench.EngineKind{ptsbench.LSM, ptsbench.BTree}

	var specs []ptsbench.Spec
	for _, eng := range engines {
		for _, qd := range depths {
			specs = append(specs, ptsbench.Spec{
				Name:         fmt.Sprintf("%v-qd%d", eng, qd),
				Device:       device,
				Engine:       eng,
				Scale:        2048, // coarse: this is a demo, not a figure
				QueueDepth:   qd,
				ReadFraction: 0.95, // read-heavy: reads overlap, writes don't
				Duration:     30 * time.Minute,
				Seed:         1,
			})
		}
	}

	results, err := ptsbench.RunGrid(specs, 0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("queue-depth sweep on %s (%d channels x %d ways = %d lanes)\n\n",
		device.Profile.Name, device.Profile.Channels, device.Profile.Ways,
		device.Profile.ParallelLanes())
	fmt.Printf("%-24s %4s %12s %8s %14s %14s\n",
		"cell", "QD", "mean KOps/s", "gain", "p50 read", "p99 read")
	base := 0.0
	for _, res := range results {
		qd := res.Spec.QueueDepth
		kops := res.MeanScaledKOps()
		if qd == 1 {
			base = kops
		}
		speedup := "-"
		if base > 0 && qd > 1 {
			speedup = fmt.Sprintf("%.1fx", kops/base)
		}
		fmt.Printf("%-24s %4d %12.2f %8s %14v %14v\n",
			res.Spec.Name, qd, kops, speedup, res.Latency.P50, res.Latency.P99)
		if qd == depths[len(depths)-1] {
			fmt.Println()
		}
	}
	fmt.Println("throughput grows with queue depth until the lane array saturates;")
	fmt.Println("past that point extra concurrency only adds queueing latency.")
}
