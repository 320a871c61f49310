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
			tr.Core.MarkDirty(leaves[i])
		}
		job, err := tr.Core.NewCheckpointJob()
		if err != nil || job == nil {
			t.Fatalf("no checkpoint job: %v", err)
		}
		for done := false; !done; {
			now, done = job.Step(now)
		}
		if err := tr.Core.fatal; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		cycle()
	}
	before := tr.Core.IO()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("a warm checkpoint cycle allocates %.1f objects, want 0", allocs)
	}
	after := tr.Core.IO()
	if after.Checkpoints != before.Checkpoints+21 || after.CheckpointPgs <= before.CheckpointPgs {
		t.Fatalf("the measured cycles did not checkpoint: %+v -> %+v", before, after)
	}
}

// BenchmarkCheckpoint measures one checkpoint of a wide stub tree whose
// every interior node is dirty and whose leaves are all clean: a root
// over 128 interiors of 128 leaves each, in accounting mode. Each
// checkpoint writes the 129 interiors, and writeSubtreeClean tests all
// 16,384 leaf references and writes none of them.
func BenchmarkCheckpoint(b *testing.B) {
	const fanout = 128
	fs, err := stubEnvSized(128<<20, false)
	if err != nil {
		b.Fatal(err)
	}
	cfg := stubConfig(time.Hour, 64) // manual checkpoints only
	cfg.Content = false
	tr, err := openStub(fs, cfg)
	if err != nil {
		b.Fatal(err)
	}
	root := tr.newNode(false)
	interiors := []*stubNode{root}
	for i := uint64(0); i < fanout; i++ {
		in := tr.newNode(false)
		in.Parent = root.ID
		root.Children = append(root.Children, in.ID)
		if i > 0 {
			root.seps = append(root.seps, i*fanout)
		}
		for j := uint64(0); j < fanout; j++ {
			leaf := tr.newNode(true)
			leaf.Parent = in.ID
			in.Children = append(in.Children, leaf.ID)
			if j > 0 {
				in.seps = append(in.seps, i*fanout+j)
			}
		}
		tr.resized(in)
		interiors = append(interiors, in)
	}
	tr.resized(root)
	tr.Core.SetRoot(root.ID)
	now, err := tr.flushAll(0)
	if err != nil {
		b.Fatal(err)
	}
	before := tr.Core.IO().CheckpointPgs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range interiors {
			tr.Core.MarkDirty(&n.Node)
		}
		job, err := tr.Core.NewCheckpointJob()
		if err != nil || job == nil {
			b.Fatalf("no checkpoint job: %v", err)
		}
		for done := false; !done; {
			now, done = job.Step(now)
		}
	}
	b.StopTimer()
	if err := tr.Core.fatal; err != nil {
		b.Fatal(err)
	}
	if pages := tr.Core.IO().CheckpointPgs - before; pages != int64(b.N)*int64(len(interiors)) {
		b.Fatalf("%d checkpoints wrote %d nodes, want %d each", b.N, pages, len(interiors))
	}
}
