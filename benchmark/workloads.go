package main

import (
	"strconv"
	"time"

	"ptsbench/internal/core"
	"ptsbench/internal/flash"
	"ptsbench/internal/sim"
	"ptsbench/internal/workload"
)

// cell is one benchmark workload: a full experiment cell (the shape of a
// core.Spec) plus the one number that is tuned per machine class, the
// virtual time measured per requested wall second.
type cell struct {
	name string
	// why records what the cell exists to show; BENCHMARK.json and the
	// README repeat it.
	why  string
	spec core.Spec
	// cacheShare, when non-zero, sets the engine's cache_bytes tunable to
	// dataset/cacheShare so the working set mostly fits the engine cache.
	cacheShare int64
	// virtPerSec is the virtual time one requested wall second buys.
	// The measured phase is fixed WORK (a virtual duration), never a
	// wall-clock budget: simulated metrics stay bit-identical for a
	// (seed, seconds) pair no matter how fast the host is. The values
	// were tuned on the 2-core reference VM so that --seconds S measures
	// for about S wall seconds; tune only this, never the shape.
	virtPerSec sim.Duration
}

// cells lists the five workloads in reporting order. Every cell uses the
// paper's SSD1 profile, 4000-byte values and a dataset of half the
// device; at most 2 shards, because the box has 2 cores and every shard
// is a worker goroutine beside the driver.
var cells = []cell{
	{
		name: "lsm-write",
		why:  "fig2 RocksDB cell to steady state: memtable/flush/compaction/WAL and FTL GC do the work, store and replica pass through",
		spec: core.Spec{
			Engine: core.LSM, Scale: 32, Dist: workload.Uniform, Initial: core.Trimmed,
		},
		virtPerSec: 30 * time.Minute,
	},
	{
		name: "btree-write-aged",
		why:  "fig2/fig3 WiredTiger cell on a preconditioned drive: cowtree checkpoints, extalloc, journal syncs, small random writes drive FTL GC hardest",
		spec: core.Spec{
			Engine: core.BTree, Scale: 32, Dist: workload.Uniform, Initial: core.Preconditioned,
		},
		virtPerSec: 100 * time.Minute,
	},
	{
		name: "betree-mixed",
		why:  "third engine on the same cowtree/extalloc core used differently (buffer flushes, buffer-answered reads), 50% Zipfian reads",
		spec: core.Spec{
			Engine: core.Betree, Scale: 64, ReadFraction: 0.5, Dist: workload.Zipfian, ZipfTheta: 0.99,
		},
		virtPerSec: 200 * time.Minute,
	},
	{
		name: "btree-read-qd16",
		why:  "reads beside writes: working set fits the engine cache, misses fan out over QD16 read waves and 16 flash lanes; write-path work must not move it",
		spec: core.Spec{
			Engine: core.BTree, Scale: 32, ReadFraction: 0.95, Dist: workload.Zipfian, ZipfTheta: 0.99,
			QueueDepth: 16,
			Device:     core.DeviceSpec{Profile: flash.ProfileSSD1().WithParallelism(4, 4)},
		},
		cacheShare: 16,
		virtPerSec: 30 * time.Minute,
	},
	{
		name: "serve-quorum",
		why:  "serving layer does the work: 2 shards x 3 quorum replicas, 8 clients; routing, intake sort, worker handoff, fan-out, kth-ack, read-repair; only LSM read path",
		spec: core.Spec{
			Engine: core.LSM, Scale: 256, ReadFraction: 0.5, Dist: workload.Zipfian, ZipfTheta: 0.99,
			Shards: 2, Replicas: 3, ReplMode: "quorum", Clients: 8,
		},
		virtPerSec: 75 * time.Minute,
	},
}

func cellByName(name string) (cell, bool) {
	for _, c := range cells {
		if c.name == name {
			return c, true
		}
	}
	return cell{}, false
}

// specFor returns the validated spec of one run. shrink multiplies the
// scale divisor (1 for real runs; tests use a large value for -quick
// sizes: the shape stays, the op count divides).
func (c cell) specFor(seed uint64, seconds float64, shrink int64) (core.Spec, error) {
	s := c.spec
	s.Name = c.name
	s.Seed = seed
	s.Scale *= shrink
	s.Duration = sim.Duration(seconds * float64(c.virtPerSec))
	s, err := s.Validate()
	if err != nil {
		return s, err
	}
	if c.cacheShare > 0 {
		dataset := int64(float64(s.Device.CapacityBytes)*s.DatasetFraction) / s.Scale
		s.Tunables = map[string]string{"cache_bytes": strconv.FormatInt(dataset/c.cacheShare, 10)}
	}
	return s, nil
}
