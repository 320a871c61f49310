package crash

// Tests for error-plan trials: every engine survives every host-stack
// error kind in both replication shapes with zero acknowledged-write
// loss, and the trial is deterministically replayable from its seed.

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestErrorTrialMatrix is the fixed-seed error-injection CI matrix:
// every engine × replication shape × error kind. Each cell runs
// several seeds so the arm point moves around the op log.
func TestErrorTrialMatrix(t *testing.T) {
	for _, eng := range []string{"lsm", "btree", "betree"} {
		for _, mc := range []struct {
			mode     string
			replicas int
		}{{"chain", 2}, {"quorum", 3}} {
			for _, kind := range []string{"eio", "short", "misdirect", "fsynclie"} {
				eng, mc, kind := eng, mc, kind
				t.Run(fmt.Sprintf("%s/%s/%s", eng, mc.mode, kind), func(t *testing.T) {
					t.Parallel()
					rep, err := Run(Spec{
						Engine:     eng,
						Ops:        250,
						Seed:       21,
						Trials:     2,
						Replicas:   mc.replicas,
						ReplMode:   mc.mode,
						ErrorKinds: []string{kind},
						ErrorProb:  0.05,
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
}

// TestErrorTrialAllKinds arms every kind at once on one replica — the
// worst single-device day the model can produce.
func TestErrorTrialAllKinds(t *testing.T) {
	rep, err := Run(Spec{
		Engine:     "btree",
		Shards:     2,
		Ops:        250,
		Seed:       5,
		Trials:     2,
		Replicas:   2,
		ErrorKinds: []string{"eio", "short", "misdirect", "fsynclie"},
		ErrorProb:  0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked == 0 {
		t.Fatalf("trivial trial: %+v", rep)
	}
}

// TestErrorTrialInjects proves the model actually fires under the
// matrix shape: across a handful of seeds, at least one trial must
// inject at least one event (a zero-injection run would vacuously
// pass).
func TestErrorTrialInjects(t *testing.T) {
	var injected int64
	for seed := uint64(21); seed < 27; seed++ {
		rep, err := Run(Spec{
			Engine:     "btree",
			Ops:        250,
			Seed:       seed,
			Replicas:   2,
			ErrorKinds: []string{"eio"},
			ErrorProb:  0.1,
		})
		if err != nil {
			t.Fatal(err)
		}
		injected += rep.Injected
	}
	if injected == 0 {
		t.Fatal("no error events injected across six seeds")
	}
}

// TestErrorTrialFileDevice runs one error trial on real backing files:
// after the victim's power cycle the file must match the resolved
// durable image byte for byte before recovery reads it.
func TestErrorTrialFileDevice(t *testing.T) {
	rep, err := Run(Spec{
		Engine:     "lsm",
		Ops:        200,
		Seed:       9,
		Replicas:   2,
		Device:     "file",
		ErrorKinds: []string{"short", "fsynclie"},
		ErrorProb:  0.08,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checked == 0 {
		t.Fatalf("trivial trial: %+v", rep)
	}
}

// TestErrorSpecValidate covers the error-field validation paths and
// defaults.
func TestErrorSpecValidate(t *testing.T) {
	s, err := Spec{Engine: "lsm", Replicas: 2, ErrorKinds: []string{"eio"}}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if s.ErrorProb != 0.05 {
		t.Fatalf("error_prob should default to 0.05, got %g", s.ErrorProb)
	}
	bad := []Spec{
		{Engine: "lsm", Replicas: 2, ErrorKinds: []string{"enoent"}},               // unknown kind
		{Engine: "lsm", Replicas: 2, ErrorKinds: []string{"eio", "eio"}},           // duplicate
		{Engine: "lsm", Replicas: 2, ErrorKinds: []string{"eio"}, ErrorProb: 1.5},  // prob > 1
		{Engine: "lsm", Replicas: 2, ErrorKinds: []string{"eio"}, ErrorProb: -0.1}, // negative prob
		{Engine: "lsm", ErrorKinds: []string{"eio"}},                               // unreplicated
		{Engine: "lsm", Replicas: 2, ErrorProb: 0.1},                               // prob without kinds
	}
	for i, b := range bad {
		if _, err := b.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, b)
		}
	}
}

// TestErrorSpecJSONRoundTrip pins the spec's JSON field names — repro
// lines and saved spec files depend on them.
func TestErrorSpecJSONRoundTrip(t *testing.T) {
	in := Spec{
		Engine:     "btree",
		Replicas:   2,
		ErrorKinds: []string{"short", "fsynclie"},
		ErrorProb:  0.07,
	}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"error_kinds":["short","fsynclie"]`, `"error_prob":0.07`} {
		if !strings.Contains(string(b), want) {
			t.Fatalf("encoded spec %s missing %s", b, want)
		}
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip changed the spec:\nin  %+v\nout %+v", in, out)
	}
}

// TestErrorReproLine pins the repro line format for error trials.
func TestErrorReproLine(t *testing.T) {
	spec, err := Spec{
		Engine:     "lsm",
		Replicas:   3,
		ReplMode:   "quorum",
		ErrorKinds: []string{"eio", "fsynclie"},
		ErrorProb:  0.05,
	}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	got := ReproLine(spec, 42)
	want := "ptsbench crash -engine lsm -shards 1 -ops 400 -keys 50 -seed 42" +
		" -replicas 3 -repl-mode quorum -errors eio,fsynclie -error-prob 0.05"
	if got != want {
		t.Fatalf("repro line drifted:\ngot  %s\nwant %s", got, want)
	}
}
