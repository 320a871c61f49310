package crash

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// The golden trial fixture pins what a (spec, seed) crash trial DOES:
// where the cut or the error plan lands, how far the op log got, how
// many keys went ambiguous, what the verification covered and what the
// device injected. A trial is sold as replayable from its one-line
// repro, so any change to how a trial's stacks are put together — RNG
// seeds, image geometry, where the fault wrapper sits, the order shards
// are built in — must leave these numbers where they are, or an old CI
// repro line silently replays a different trial.
//
// Regenerate (only when a deliberate behavioural change is made):
//
//	go test ./internal/crash -run TestGoldenTrials -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden trial fixture")

// goldenTrial is every Report field except the spec.
type goldenTrial struct {
	Shape         string
	Seed          uint64
	CutShard      int
	CutReplica    int
	CutWrite      int64
	CutOp         int
	Ambiguous     int
	Checked       int
	Scanned       int
	Injected      int64
	RecoveredLoud bool
}

// goldenShapes are the CI matrices' shapes (ci.yml: crash-smoke,
// replica-crash-smoke, error-injection-smoke) on the sim device, then
// the paths those never reach: the file device under each kind of trial
// (the backing-file image check, the per-pass image directories, and —
// the one shape with its own Ops and a certain lie, because no shorter
// log damages an image enough — the rebuild directory of a loud
// recovery refusal, seeds 2 and 3), and a fully pinned cut, unreplicated
// and replicated (the sampler's pinned branches).
func goldenShapes() []Spec {
	allKinds := []string{"eio", "short", "misdirect", "fsynclie"}
	var shapes []Spec
	for _, eng := range []string{"lsm", "btree", "betree"} {
		shapes = append(shapes,
			Spec{Engine: eng, Shards: 1},
			Spec{Engine: eng, Shards: 4},
			Spec{Engine: eng, Shards: 2, Replicas: 2, ReplMode: "chain"},
			Spec{Engine: eng, Shards: 2, Replicas: 3, ReplMode: "quorum"},
			Spec{Engine: eng, Replicas: 2, ReplMode: "chain", ErrorKinds: allKinds, ErrorProb: 0.05},
			Spec{Engine: eng, Replicas: 3, ReplMode: "quorum", ErrorKinds: allKinds, ErrorProb: 0.05},
		)
	}
	return append(shapes,
		Spec{Engine: "btree", Shards: 4, Device: "file"},
		Spec{Engine: "betree", Shards: 2, Replicas: 2, ReplMode: "chain", Device: "file"},
		Spec{Engine: "lsm", Ops: 2000, Replicas: 2, ReplMode: "chain", ErrorKinds: []string{"fsynclie"}, ErrorProb: 1, Device: "file"},
		Spec{Engine: "btree", Shards: 2, CutShard: 1, CutWrite: 5},
		Spec{Engine: "btree", Shards: 2, Replicas: 3, ReplMode: "quorum", CutShard: 1, CutWrite: 5},
	)
}

func shapeName(s Spec) string {
	name := fmt.Sprintf("%s/shards=%d", s.Engine, s.Shards)
	if s.Replicas > 1 {
		name += fmt.Sprintf("/%s=%d", s.ReplMode, s.Replicas)
	}
	if len(s.ErrorKinds) > 0 {
		name += "/errors"
	}
	if s.CutWrite > 0 {
		name += fmt.Sprintf("/pin=%d@%d", s.CutShard, s.CutWrite)
	}
	if s.Device == "file" {
		name += "/file"
	}
	return name
}

func TestGoldenTrials(t *testing.T) {
	var trials []goldenTrial
	for _, shape := range goldenShapes() {
		if shape.Ops == 0 {
			shape.Ops = 400
		}
		for seed := uint64(1); seed <= 4; seed++ {
			shape.Seed = seed
			rep, err := Run(shape)
			if err != nil {
				t.Fatalf("%s seed %d: %v", shapeName(shape), seed, err)
			}
			trials = append(trials, goldenTrial{
				Shape:         shapeName(shape),
				Seed:          rep.Seed,
				CutShard:      rep.CutShard,
				CutReplica:    rep.CutReplica,
				CutWrite:      rep.CutWrite,
				CutOp:         rep.CutOp,
				Ambiguous:     rep.Ambiguous,
				Checked:       rep.Checked,
				Scanned:       rep.Scanned,
				Injected:      rep.Injected,
				RecoveredLoud: rep.RecoveredLoud,
			})
		}
	}
	got, err := json.MarshalIndent(trials, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_trials.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d trials)", path, len(trials))
		return
	}
	wantBytes, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update-golden to create): %v", err)
	}
	var want []goldenTrial
	if err := json.Unmarshal(wantBytes, &want); err != nil {
		t.Fatalf("parsing %s: %v", path, err)
	}
	if len(want) != len(trials) {
		t.Fatalf("fixture holds %d trials, ran %d", len(want), len(trials))
	}
	for i := range want {
		if trials[i] != want[i] {
			t.Errorf("trial diverges from %s:\ngot:  %+v\nwant: %+v", path, trials[i], want[i])
		}
	}
}
