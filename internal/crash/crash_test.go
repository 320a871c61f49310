package crash

import (
	"fmt"
	"reflect"
	"testing"
)

// TestCrashMatrix is the fixed-seed CI matrix: every engine × shard
// shape survives a sampled power cut and recovers to a state the
// reference model allows. Each case runs a handful of independent
// seeds; any failure prints a one-line ptsbench repro.
func TestCrashMatrix(t *testing.T) {
	for _, eng := range []string{"lsm", "btree", "betree"} {
		for _, shards := range []int{1, 4} {
			eng, shards := eng, shards
			t.Run(fmt.Sprintf("%s/shards=%d", eng, shards), func(t *testing.T) {
				t.Parallel()
				rep, err := Run(Spec{
					Engine: eng,
					Shards: shards,
					Ops:    300,
					Seed:   1,
					Trials: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Checked == 0 || rep.Scanned == 0 {
					t.Fatalf("trivial trial: %+v", rep)
				}
			})
		}
	}
}

// TestCrashPinnedCut exercises the explicit cut pinning path: the cut
// must land exactly where the spec says.
func TestCrashPinnedCut(t *testing.T) {
	rep, err := Run(Spec{
		Engine:   "btree",
		Shards:   2,
		Ops:      200,
		Seed:     7,
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

// TestTrialDeterminism: under every scenario the same (spec, seed)
// replays to the same Report — fault coordinates, injection counts,
// recovery outcome and verification counts.
func TestTrialDeterminism(t *testing.T) {
	for _, spec := range []Spec{
		{Engine: "btree", Shards: 4, Ops: 250, Seed: 19},
		{Engine: "lsm", Shards: 2, Ops: 250, Seed: 13, Replicas: 3, ReplMode: "quorum"},
		{Engine: "betree", Ops: 250, Seed: 17, Replicas: 3, ReplMode: "quorum",
			ErrorKinds: []string{"misdirect", "eio"}, ErrorProb: 0.06},
	} {
		t.Run(spec.Scenario().Name, func(t *testing.T) {
			a, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("trials diverged:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestSpecValidate covers default filling and fail-fast rejection.
func TestSpecValidate(t *testing.T) {
	s, err := Spec{Engine: "lsm", Seed: 3}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards != 1 || s.Ops != 400 || s.Keys != 50 || s.Trials != 1 || s.CutShard != -1 {
		t.Fatalf("defaults wrong: %+v", s)
	}
	bad := []Spec{
		{},                          // no engine
		{Engine: "nope"},            // unknown engine
		{Engine: "lsm", Shards: 65}, // too many shards
		{Engine: "lsm", Ops: -1},
		{Engine: "lsm", Trials: -1},
		{Engine: "lsm", Shards: 2, CutShard: 2, CutWrite: 1},
		{Engine: "lsm", CutWrite: -5},
		{Engine: "lsm", Shards: 2, CutShard: 1},    // half a pin: shard without write
		{Engine: "lsm", CutShard: -1, CutWrite: 5}, // half a pin: write without shard
	}
	for i, b := range bad {
		if _, err := b.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, b)
		}
	}
}

// TestReproLine pins the repro format the CLI prints on failure: every
// knob shaping the trial appears, so the line replays without the spec
// it came from.
func TestReproLine(t *testing.T) {
	s, err := Spec{Engine: "lsm", Shards: 4, Ops: 300}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	got := ReproLine(s, 99)
	want := "ptsbench crash -engine lsm -shards 4 -ops 300 -keys 37 -seed 99"
	if got != want {
		t.Fatalf("repro line %q, want %q", got, want)
	}

	s, err = Spec{
		Engine:   "btree",
		Shards:   2,
		Ops:      200,
		Keys:     64,
		Replicas: 3,
		ReplMode: "quorum",
		CutShard: 1,
		CutWrite: 5,
	}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	got = ReproLine(s, 7)
	want = "ptsbench crash -engine btree -shards 2 -ops 200 -keys 64 -seed 7" +
		" -replicas 3 -repl-mode quorum -cut-shard 1 -cut-write 5"
	if got != want {
		t.Fatalf("replicated repro line %q, want %q", got, want)
	}
}
