package core

// Tests for the sharded serving layer at the experiment level: spec
// validation of shard/client shapes, determinism of concurrent-shard
// runs, and the scaling the shards × clients figure is built on.

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestValidateShardClientShapes(t *testing.T) {
	base := Spec{Engine: LSM, Scale: 4096, Duration: 10 * time.Minute}
	cases := []struct {
		name            string
		mutate          func(*Spec)
		wantErrContains string
	}{
		{"negative shards", func(s *Spec) { s.Shards = -1 }, "shards must be >= 1"},
		{"absurd shards", func(s *Spec) { s.Shards = 4096 }, "lane budget"},
		{"negative clients", func(s *Spec) { s.Clients = -2 }, "clients must be >= 1"},
		{"starved shards", func(s *Spec) { s.Shards = 4; s.Clients = 2 }, "cannot keep 4 shards busy"},
		{"skew below range", func(s *Spec) { s.Skew = -0.1 }, "outside [0,1]"},
		{"skew above range", func(s *Spec) { s.Skew = 1.5 }, "outside [0,1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base
			tc.mutate(&s)
			_, err := s.Validate()
			if err == nil {
				t.Fatalf("expected error for %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.wantErrContains) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErrContains)
			}
		})
	}

	// Defaults: 1 shard, clients follow shards.
	v, err := base.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if v.Shards != 1 || v.Clients != 1 {
		t.Fatalf("defaults: shards=%d clients=%d, want 1/1", v.Shards, v.Clients)
	}
	s := base
	s.Shards = 4
	if v, err = s.Validate(); err != nil || v.Clients != 4 {
		t.Fatalf("clients should default to shards: %d, %v", v.Clients, err)
	}
}

// TestShardedRunDeterminism: set-up loads and flushes the shards on
// concurrent goroutines, and a sharded experiment must still replay
// sample-for-sample.
func TestShardedRunDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(Spec{
			Engine:   LSM,
			Scale:    4096,
			Shards:   4,
			Clients:  8,
			Duration: 10 * time.Minute,
			Seed:     3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Steady != b.Steady {
		t.Fatalf("steady stats differ: %+v vs %+v", a.Steady, b.Steady)
	}
	if a.Latency != b.Latency {
		t.Fatalf("latency differs: %+v vs %+v", a.Latency, b.Latency)
	}
	if len(a.Series.Samples) != len(b.Series.Samples) {
		t.Fatal("sample counts differ")
	}
	for i := range a.Series.Samples {
		if a.Series.Samples[i] != b.Series.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

// TestShardedRunBasics: a sharded run produces a well-formed result —
// and a skewed one still completes with plausible stats.
func TestShardedRunBasics(t *testing.T) {
	res, err := Run(Spec{
		Engine:   LSM,
		Scale:    4096,
		Shards:   2,
		Clients:  4,
		Skew:     0.5,
		Duration: 10 * time.Minute,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutOfSpace {
		t.Fatal("unexpected OOS")
	}
	if res.Steady.ThroughputKOps <= 0 || res.Steady.WAA < 1 || res.Steady.WAD < 1 {
		t.Fatalf("implausible steady stats: %+v", res.Steady)
	}
	if len(res.LBACDF) != 101 {
		t.Fatalf("combined CDF length %d", len(res.LBACDF))
	}
	if res.FracLBAs <= 0 || res.FracLBAs > 1 {
		t.Fatalf("FracLBAs %v out of range", res.FracLBAs)
	}
}

// TestShardedThroughputScales: with enough clients, four shards beat
// one — the claim the shards × clients figure quantifies.
func TestShardedThroughputScales(t *testing.T) {
	run := func(shards int) float64 {
		res, err := Run(Spec{
			Engine:   LSM,
			Scale:    4096,
			Shards:   shards,
			Clients:  8,
			Duration: 10 * time.Minute,
			Seed:     11,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Steady.ThroughputKOps
	}
	one, four := run(1), run(4)
	if four <= one {
		t.Fatalf("4 shards (%v kops) should out-serve 1 shard (%v kops) with 8 clients", four, one)
	}
}

// TestShardedSpecGridExpands: the shards × clients sweep axes expand,
// skip starved combinations, and name cells uniquely.
func TestShardedSpecGridExpands(t *testing.T) {
	doc := []byte(`{
		"name": "sharded",
		"engines": ["lsm"],
		"scales": [4096],
		"shard_counts": [1, 2, 4],
		"client_counts": [1, 4, 8],
		"duration": "10m",
		"seed": 5
	}`)
	exp, err := ParseExperiment(doc)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := exp.Specs(false)
	if err != nil {
		t.Fatal(err)
	}
	// 3x3 grid minus the starved cells (2,1), (4,1): 7 remain.
	if len(specs) != 7 {
		t.Fatalf("expected 7 feasible cells, got %d", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Clients < s.Shards {
			t.Fatalf("starved cell survived: %d shards, %d clients", s.Shards, s.Clients)
		}
		if seen[s.Name] {
			t.Fatalf("duplicate cell name %q", s.Name)
		}
		seen[s.Name] = true
	}
	// The default serving shape keeps its historical cell name.
	var oneByOne Spec
	for _, s := range specs {
		if s.Shards == 1 && s.Clients == 1 {
			oneByOne = s
		}
	}
	if strings.Contains(oneByOne.Name, "s=") {
		t.Fatalf("1-shard/1-client cell name %q should not carry the serving suffix", oneByOne.Name)
	}
}

// TestShardedSpecJSONFields: the serving-layer fields ride the wire.
func TestShardedSpecJSONFields(t *testing.T) {
	s, err := Spec{Engine: LSM, Shards: 4, Clients: 8, Skew: 0.25}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"shards":4`, `"clients":8`, `"skew":0.25`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("wire form %s missing %s", data, want)
		}
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Shards != 4 || back.Clients != 8 || back.Skew != 0.25 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}
