package crash

import (
	"fmt"
	"math"
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

// TestEveryCutOfOneSeed cuts power at every write of one small trial
// instead of at the one write a seed samples: seed 1, one shard, the sim
// device, 400 ops, for each engine at its default tunables and for the
// trees checkpointing in the background, which the default interval
// never does in 400 ops. Recycled arena chunks and pooled arrays are
// where a use after release would corrupt what recovery reads. The
// calibrated write count is pinned too: a pin past the last write lands
// on it, so Run reports the count.
func TestEveryCutOfOneSeed(t *testing.T) {
	for _, c := range []struct {
		engine, interval string
		writes           int64
	}{
		{"lsm", "", 338},
		{"btree", "", 25},
		{"betree", "", 25},
		{"btree", "200us", 159},
		{"betree", "200us", 123},
	} {
		c := c
		spec := Spec{Engine: c.engine, Shards: 1, Ops: 400, Seed: 1}
		if c.interval != "" {
			spec.Tunables = map[string]string{"checkpoint_interval": c.interval}
		}
		t.Run(shapeName(spec), func(t *testing.T) {
			t.Parallel()
			spec.CutShard, spec.CutWrite = 0, math.MaxInt64
			rep, err := Run(spec)
			if err != nil {
				t.Fatal(err)
			}
			if rep.CutWrite != c.writes {
				t.Fatalf("calibration counted %d writes, want %d", rep.CutWrite, c.writes)
			}
			for spec.CutWrite = 1; spec.CutWrite < c.writes; spec.CutWrite++ {
				if _, err := Run(spec); err != nil {
					t.Fatal(err)
				}
			}
		})
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

	s, err = Spec{
		Engine:   "btree",
		Tunables: map[string]string{"leaf_page_bytes": "4096", "checkpoint_interval": "200us"},
	}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	got = ReproLine(s, 3)
	want = "ptsbench crash -engine btree -shards 1 -ops 400 -keys 50 -seed 3" +
		" -tunable checkpoint_interval=200us -tunable leaf_page_bytes=4096"
	if got != want {
		t.Fatalf("tunables repro line %q, want %q", got, want)
	}
}

// TestCrashCheckpointsInGroupCommits runs the tree engines with a
// checkpoint due every 200 µs, so background checkpoints start while the
// store has a group commit open, and requires every acknowledged write
// back after the cut on each of 16 seeds.
func TestCrashCheckpointsInGroupCommits(t *testing.T) {
	for _, eng := range []string{"btree", "betree"} {
		eng := eng
		t.Run(eng, func(t *testing.T) {
			t.Parallel()
			if _, err := Run(Spec{
				Engine:   eng,
				Ops:      400,
				Seed:     1,
				Trials:   16,
				Tunables: map[string]string{"checkpoint_interval": "200us"},
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
