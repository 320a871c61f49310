package cowtree

import (
	"testing"
	"time"

	"ptsbench/internal/sim"
)

// TestCheckpointCycleAllocs pins the checkpoint machinery's reuse: once
// warm — job and its id/key slices back in the pool, the epoch stamps
// and the write and metadata images grown, both metadata slots and a
// recycled journal segment in place — snapshotting a dirty set, writing
// it bottom-up in content mode and committing allocates nothing. The
// warm-up is long because the simulated FTL under it keeps growing its
// per-valid-count block buckets for the first few dozen cycles; the
// journal stays empty (nodes are dirtied directly), so a used segment's
// recycling, which is the wal package's, is not part of the cycle.
func TestCheckpointCycleAllocs(t *testing.T) {
	fs, err := stubEnv()
	if err != nil {
		t.Fatal(err)
	}
	tr, err := openStub(fs, stubConfig(time.Hour, 4)) // manual checkpoints only
	if err != nil {
		t.Fatal(err)
	}
	var now sim.Duration
	for k := uint64(0); k < 400; k++ {
		if now, err = tr.put(now, k, val(1, k)); err != nil {
			t.Fatal(err)
		}
	}
	var leaves []*Node
	for _, n := range tr.nodes[1:] {
		if n.Leaf {
			leaves = append(leaves, &n.Node)
		}
	}
	cycle := func() {
		// Every fourth leaf is dirty: the closure pulls in their spines.
		for i := 0; i < len(leaves); i += 4 {
			tr.core.MarkDirty(leaves[i])
		}
		job, err := tr.core.NewCheckpointJob()
		if err != nil || job == nil {
			t.Fatalf("no checkpoint job: %v", err)
		}
		for done := false; !done; {
			now, done = job.Step(now)
		}
		if err := tr.core.Err(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	before := tr.core.IO()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a warm checkpoint cycle allocates %.1f objects, want 0", allocs)
	}
	after := tr.core.IO()
	if after.Checkpoints != before.Checkpoints+21 || after.CheckpointPgs <= before.CheckpointPgs {
		t.Fatalf("the measured cycles did not checkpoint: %+v -> %+v", before, after)
	}
}
