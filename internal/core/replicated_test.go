package core

// Tests for replicated shard groups at the experiment level: spec
// validation of replica shapes, the R=1 identity guarantee, determinism
// of replicated runs in both modes, and the replicas × modes sweep
// axes.

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestValidateReplicaShapes(t *testing.T) {
	base := Spec{Engine: LSM, Scale: 4096, Duration: 10 * time.Minute}
	cases := []struct {
		name            string
		mutate          func(*Spec)
		wantErrContains string
	}{
		{"negative replicas", func(s *Spec) { s.Replicas = -1 }, "replicas must be >= 1"},
		{"replicas overflow lane budget", func(s *Spec) { s.Replicas = 2048 }, "lane budget"},
		{"shards x replicas overflow lane budget", func(s *Spec) { s.Shards = 512; s.Clients = 512; s.Replicas = 3 }, "lane budget"},
		{"unknown repl mode", func(s *Spec) { s.Replicas = 3; s.ReplMode = "paxos" }, "unknown repl_mode"},
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

	// Defaults: 1 replica, no mode; replicated specs default to chain.
	v, err := base.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if v.Replicas != 1 || v.ReplMode != "" {
		t.Fatalf("defaults: replicas=%d mode=%q, want 1 and empty", v.Replicas, v.ReplMode)
	}
	s := base
	s.Replicas = 3
	if v, err = s.Validate(); err != nil || v.ReplMode != "chain" {
		t.Fatalf("replicated specs should default to chain: %q, %v", v.ReplMode, err)
	}
	// 1024 engine stacks exactly is the budget, not over it.
	s = base
	s.Shards, s.Clients, s.Replicas = 256, 256, 4
	if _, err = s.Validate(); err != nil {
		t.Fatalf("256 shards x 4 replicas should fit the lane budget: %v", err)
	}
}

// TestReplicasOneIsIdentical: an explicit Replicas=1 spec never
// constructs a replica group and reproduces the unreplicated run
// sample for sample.
func TestReplicasOneIsIdentical(t *testing.T) {
	base := Spec{
		Engine:   LSM,
		Scale:    4096,
		Shards:   2,
		Clients:  4,
		Duration: 10 * time.Minute,
		Seed:     3,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withField := base
	withField.Replicas = 1
	repl, err := Run(withField)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Steady != repl.Steady {
		t.Fatalf("steady stats differ: %+v vs %+v", plain.Steady, repl.Steady)
	}
	if plain.Latency != repl.Latency {
		t.Fatalf("latency differs: %+v vs %+v", plain.Latency, repl.Latency)
	}
	if len(plain.Series.Samples) != len(repl.Series.Samples) {
		t.Fatal("sample counts differ")
	}
	for i := range plain.Series.Samples {
		if plain.Series.Samples[i] != repl.Series.Samples[i] {
			t.Fatalf("sample %d differs", i)
		}
	}
}

// TestReplicatedRunDeterminism: replica groups load and flush on
// concurrent per-shard goroutines, and a replicated experiment must
// still replay sample-for-sample in both modes.
func TestReplicatedRunDeterminism(t *testing.T) {
	for _, mode := range []string{"chain", "quorum"} {
		t.Run(mode, func(t *testing.T) {
			run := func() *Result {
				res, err := Run(Spec{
					Engine:   LSM,
					Scale:    4096,
					Shards:   2,
					Clients:  4,
					Replicas: 3,
					ReplMode: mode,
					Duration: 10 * time.Minute,
					Seed:     5,
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
			for i := range a.Series.Samples {
				if a.Series.Samples[i] != b.Series.Samples[i] {
					t.Fatalf("sample %d differs", i)
				}
			}
		})
	}
}

// TestReplicatedRunBasics: a replicated run completes with plausible
// stats, and replication shows where it must — device write traffic
// and space multiply by ~R while logical throughput does not.
func TestReplicatedRunBasics(t *testing.T) {
	run := func(replicas int) *Result {
		res, err := Run(Spec{
			Engine:   LSM,
			Scale:    4096,
			Shards:   2,
			Clients:  4,
			Replicas: replicas,
			ReplMode: "chain",
			Duration: 10 * time.Minute,
			Seed:     7,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.OutOfSpace {
			t.Fatal("unexpected OOS")
		}
		return res
	}
	one, three := run(1), run(3)
	if three.Steady.ThroughputKOps <= 0 {
		t.Fatalf("implausible replicated steady stats: %+v", three.Steady)
	}
	// Load-phase host writes are physical: three full copies of the
	// dataset land on three devices.
	if lo := 2 * one.LoadHostBytes; three.LoadHostBytes < lo {
		t.Fatalf("replicated load wrote %d host bytes, want >= %d (~3x the unreplicated %d)",
			three.LoadHostBytes, lo, one.LoadHostBytes)
	}
	// Footprint is per-replica honest: ~3x the space.
	if lo := 2 * one.Steady.DiskUsedBytes; three.Steady.DiskUsedBytes < lo {
		t.Fatalf("replicated footprint %d, want >= %d (~3x the unreplicated %d)",
			three.Steady.DiskUsedBytes, lo, one.Steady.DiskUsedBytes)
	}
	// Logical throughput must NOT be multiplied by R — acks wait for
	// replication, so it can only be at or below the unreplicated rate.
	if three.Steady.ThroughputKOps > one.Steady.ThroughputKOps*1.05 {
		t.Fatalf("replicated throughput %v kops exceeds unreplicated %v kops: stats are counting per-replica ops",
			three.Steady.ThroughputKOps, one.Steady.ThroughputKOps)
	}
}

// TestReplicatedSpecGridExpands: the replicas × modes sweep axes
// expand, run unreplicated cells once (not once per mode), and name
// replicated cells uniquely.
func TestReplicatedSpecGridExpands(t *testing.T) {
	doc := []byte(`{
		"name": "replicated",
		"engines": ["lsm"],
		"scales": [4096],
		"shard_counts": [2],
		"client_counts": [4],
		"replica_counts": [1, 2, 3],
		"repl_modes": ["chain", "quorum"],
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
	// R=1 runs once; R=2 and R=3 run per mode: 1 + 2*2 = 5 cells.
	if len(specs) != 5 {
		t.Fatalf("expected 5 cells, got %d", len(specs))
	}
	seen := map[string]bool{}
	unreplicated := 0
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate cell name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Replicas == 1 {
			unreplicated++
			if strings.Contains(s.Name, "r=") {
				t.Fatalf("unreplicated cell name %q carries the replica suffix", s.Name)
			}
		} else if !strings.Contains(s.Name, "r=") || !strings.Contains(s.Name, s.ReplMode) {
			t.Fatalf("replicated cell name %q missing replicas or mode", s.Name)
		}
	}
	if unreplicated != 1 {
		t.Fatalf("expected exactly 1 unreplicated cell, got %d", unreplicated)
	}
}

// TestReplicatedSpecJSONFields: the replication fields ride the wire
// when set — and stay entirely off it for unreplicated specs, keeping
// historical spec documents byte-identical.
func TestReplicatedSpecJSONFields(t *testing.T) {
	s, err := Spec{Engine: LSM, Shards: 2, Clients: 4, Replicas: 3, ReplMode: "quorum"}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"replicas":3`, `"repl_mode":"quorum"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("wire form %s missing %s", data, want)
		}
	}
	var back Spec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Replicas != 3 || back.ReplMode != "quorum" {
		t.Fatalf("round trip lost fields: %+v", back)
	}
	// Unreplicated specs never mention replication on the wire.
	plain, err := Spec{Engine: LSM}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	data, err = json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "repl") {
		t.Fatalf("unreplicated wire form mentions replication: %s", data)
	}
}
