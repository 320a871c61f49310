package crash

// Tests for replicated crash trials: every engine survives a mid-batch
// replica kill in both replication modes, fails over with zero
// acknowledged-write loss, recovers the killed replica from its own
// durable image, and reconverges entry-for-entry.

import (
	"fmt"
	"testing"
)

// TestReplicaCrashMatrix is the fixed-seed replicated CI matrix: every
// engine × mode shape masks a sampled replica kill. Chain runs at R=2
// (smallest failable chain), quorum at R=3 (smallest group that keeps a
// write majority after a kill).
func TestReplicaCrashMatrix(t *testing.T) {
	for _, eng := range []string{"lsm", "btree", "betree"} {
		for _, mc := range []struct {
			mode     string
			replicas int
		}{{"chain", 2}, {"quorum", 3}} {
			eng, mc := eng, mc
			t.Run(fmt.Sprintf("%s/%s/r=%d", eng, mc.mode, mc.replicas), func(t *testing.T) {
				t.Parallel()
				rep, err := Run(Spec{
					Engine:   eng,
					Shards:   2,
					Ops:      300,
					Seed:     1,
					Trials:   3,
					Replicas: mc.replicas,
					ReplMode: mc.mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Checked == 0 || rep.Scanned == 0 {
					t.Fatalf("trivial trial: %+v", rep)
				}
				if rep.CutReplica < 0 || rep.CutReplica >= mc.replicas {
					t.Fatalf("cut replica %d out of range for %d replicas", rep.CutReplica, mc.replicas)
				}
			})
		}
	}
}

// TestReplicaCrashChainThree covers a deeper chain so the kill can land
// on a mid-chain replica, not just head or tail.
func TestReplicaCrashChainThree(t *testing.T) {
	rep, err := Run(Spec{
		Engine:   "lsm",
		Ops:      300,
		Seed:     11,
		Trials:   4,
		Replicas: 3,
		ReplMode: "chain",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked == 0 {
		t.Fatalf("trivial trial: %+v", rep)
	}
}

// TestReplicaCrashPinnedCut pins the shard and write index; the kill
// must land exactly there (replica still sampled by traffic).
func TestReplicaCrashPinnedCut(t *testing.T) {
	rep, err := Run(Spec{
		Engine:   "btree",
		Shards:   2,
		Ops:      200,
		Seed:     7,
		Replicas: 2,
		ReplMode: "chain",
		CutShard: 1,
		CutWrite: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CutShard != 1 || rep.CutWrite != 5 {
		t.Fatalf("pinned cut not honored: %+v", rep)
	}
}

// TestReplicaCrashFileDevice runs one replicated trial on real backing
// files: power-on must leave the killed replica's file byte-identical
// to the fault wrapper's resolved durable image before recovery reads
// it.
func TestReplicaCrashFileDevice(t *testing.T) {
	rep, err := Run(Spec{
		Engine:   "betree",
		Ops:      250,
		Seed:     3,
		Trials:   2,
		Replicas: 2,
		ReplMode: "chain",
		Device:   "file",
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked == 0 {
		t.Fatalf("trivial trial: %+v", rep)
	}
}

// TestReplicaSpecValidate covers the replica-shape error paths and the
// replicated defaults.
func TestReplicaSpecValidate(t *testing.T) {
	s, err := Spec{Engine: "lsm", Replicas: 2}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if s.ReplMode != "chain" {
		t.Fatalf("replicated specs should default to chain, got %q", s.ReplMode)
	}
	s, err = Spec{Engine: "lsm"}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if s.Replicas != 1 || s.ReplMode != "" {
		t.Fatalf("unreplicated defaults wrong: %+v", s)
	}
	bad := []Spec{
		{Engine: "lsm", Replicas: -1},                       // negative
		{Engine: "lsm", Replicas: 6},                        // over the cap
		{Engine: "lsm", Replicas: 3, ReplMode: "paxos"},     // unknown mode
		{Engine: "lsm", Replicas: 2, ReplMode: "quorum"},    // kill would lose the majority
		{Engine: "lsm", Replicas: 2, ReplMode: "chainsaw"},  // unknown mode, replicated
		{Engine: "lsm", Replicas: 1, ReplMode: "telepathy"}, // unknown mode, unreplicated
	}
	for i, b := range bad {
		if _, err := b.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, b)
		}
	}
}
