package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"ptsbench/internal/flash"
	"ptsbench/internal/workload"
)

// randomSpec builds a valid spec from randomly chosen legal parts.
func randomSpec(r *rand.Rand) Spec {
	pick := func(n int) int { return r.Intn(n) }
	s := Spec{
		Name:              []string{"", "cell-a", "päper scale"}[pick(3)],
		Engine:            []EngineKind{LSM, BTree, Betree, ""}[pick(4)],
		Scale:             []int64{0, 128, 4096}[pick(3)],
		DatasetFraction:   []float64{0, 0.25, 0.5}[pick(3)],
		ValueBytes:        []int{0, 128, 4000}[pick(3)],
		ReadFraction:      []float64{0, 0.5, 0.95, 1}[pick(4)],
		Dist:              []workload.Dist{workload.Uniform, workload.Zipfian, workload.SequentialDist}[pick(3)],
		Initial:           []InitialState{Trimmed, Preconditioned}[pick(2)],
		PartitionFraction: []float64{0, 0.75, 1}[pick(3)],
		QueueDepth:        []int{0, 1, 16}[pick(3)],
		Shards:            []int{0, 1, 4}[pick(3)],
		Skew:              []float64{0, 0.3}[pick(2)],
		Duration:          []time.Duration{0, 20 * time.Minute, 210 * time.Minute}[pick(3)],
		SampleEvery:       []time.Duration{0, 10 * time.Second, 30 * time.Second}[pick(3)],
		Seed:              uint64(pick(100)),
	}
	if s.Dist == workload.Zipfian {
		s.ZipfTheta = []float64{0, 0.8, 0.99}[pick(3)]
	}
	if s.Shards > 0 && pick(2) == 0 {
		s.Clients = s.Shards * []int{1, 3}[pick(2)]
	}
	switch pick(4) {
	case 0:
		// zero device; Validate fills the default
	case 1:
		s.Device = DefaultDevice()
	case 2:
		d := DefaultDevice()
		d.Profile = flash.ProfileSSD2().WithParallelism(4, 4)
		s.Device = d
	case 3:
		// custom profile: must survive via profile_spec
		d := DefaultDevice()
		d.Profile.WriteBW /= 2
		d.Profile.Name = "custom-half-write"
		s.Device = d
	}
	switch s.Engine {
	case Betree:
		if pick(2) == 0 {
			s.Tunables = map[string]string{"epsilon": "0.6"}
		}
	case LSM:
		if pick(2) == 0 {
			s.Tunables = map[string]string{"memtable_bytes": "131072", "sync_wal": "false"}
		}
	}
	return s
}

// TestSpecJSONRoundTrip is the codec's property test: for many random
// valid specs, encode → decode → Validate must reproduce the validated
// original exactly.
func TestSpecJSONRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		orig, err := randomSpec(r).Validate()
		if err != nil {
			t.Fatalf("random spec invalid: %v", err)
		}
		data, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		var decoded Spec
		if err := json.Unmarshal(data, &decoded); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		got, err := decoded.Validate()
		if err != nil {
			t.Fatalf("validate after round trip: %v\njson: %s", err, data)
		}
		if !reflect.DeepEqual(orig, got) {
			t.Fatalf("round trip diverged\norig:    %+v\ndecoded: %+v\njson: %s", orig, got, data)
		}
	}
}

// TestCustomProfileSurvivesValidate: a fully custom device profile —
// even one without a cosmetic Name — must never be silently replaced
// by the SSD1 default.
func TestCustomProfileSurvivesValidate(t *testing.T) {
	var s Spec
	doc := []byte(`{"device": {"profile_spec": {
		"ReadFixed": 90000, "WriteFixed": 25000,
		"ReadBW": 1000000000, "WriteBW": 500000000,
		"InternalReadBW": 1000000000, "InternalWriteBW": 500000000,
		"EraseTime": 2000000, "HardwareOP": 0.25
	}}}`)
	if err := json.Unmarshal(doc, &s); err != nil {
		t.Fatal(err)
	}
	v, err := s.Validate()
	if err != nil {
		t.Fatal(err)
	}
	if v.Device.Profile.WriteBW != 500000000 {
		t.Fatalf("custom profile replaced by default: %+v", v.Device.Profile)
	}
	if v.Device.CapacityBytes != DefaultDevice().CapacityBytes {
		t.Fatal("unset capacity should still default")
	}
}

// TestChannelsOverrideAppliesToCustomProfile: the channels/ways fields
// must give a custom profile_spec internal lanes too, not only stock
// profiles.
func TestChannelsOverrideAppliesToCustomProfile(t *testing.T) {
	var s Spec
	doc := []byte(`{"device": {
		"profile_spec": {"Name": "custom", "ReadBW": 1000000000, "WriteBW": 500000000},
		"channels": 4, "ways": 2
	}}`)
	if err := json.Unmarshal(doc, &s); err != nil {
		t.Fatal(err)
	}
	if got := s.Device.Profile.ParallelLanes(); got != 8 {
		t.Fatalf("ParallelLanes = %d, want 8 (channels*ways override dropped)", got)
	}
}

func TestSpecJSONRejectsUnknownFields(t *testing.T) {
	var s Spec
	err := json.Unmarshal([]byte(`{"engine":"lsm","quantum_mode":true}`), &s)
	if err == nil || !strings.Contains(err.Error(), "quantum_mode") {
		t.Fatalf("unknown field should error with the field name: %v", err)
	}
}

// TestSpecRejectsUnknownTunables pins the fail-fast diagnostics: a spec
// with a tunable key the engine doesn't have must fail Validate (not a
// 20-minute load phase later), naming the engine.
func TestSpecRejectsUnknownTunables(t *testing.T) {
	var s Spec
	if err := json.Unmarshal([]byte(`{"engine":"betree","tunables":{"bogus_knob":"1"}}`), &s); err != nil {
		t.Fatal(err)
	}
	_, err := s.Validate()
	if err == nil {
		t.Fatal("unknown tunable should fail Validate")
	}
	if !strings.Contains(err.Error(), "betree") || !strings.Contains(err.Error(), "bogus_knob") {
		t.Fatalf("error should name the engine and the knob: %v", err)
	}
	// A knob from the wrong engine's namespace is just as unknown.
	s = Spec{Engine: BTree, Tunables: map[string]string{"epsilon": "0.5"}}
	if _, err := s.Validate(); err == nil || !strings.Contains(err.Error(), "btree") {
		t.Fatalf("cross-engine knob should fail naming btree: %v", err)
	}
	// Malformed values fail too, naming engine and value.
	s = Spec{Engine: Betree, Tunables: map[string]string{"epsilon": "a-lot"}}
	if _, err := s.Validate(); err == nil || !strings.Contains(err.Error(), "betree") {
		t.Fatalf("malformed value should fail naming the engine: %v", err)
	}
}

func TestSpecValidateFailsFast(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"read fraction high", Spec{ReadFraction: 1.5}, "read fraction"},
		{"read fraction negative", Spec{ReadFraction: -0.1}, "read fraction"},
		{"unknown dist", Spec{Dist: workload.Dist(42)}, "distribution"},
		{"negative zipf", Spec{ZipfTheta: -1}, "ZipfTheta"},
		{"zipf theta too large", Spec{Dist: workload.Zipfian, ZipfTheta: 1.2}, "ZipfTheta"},
		{"unknown engine", Spec{Engine: "quantum-tree"}, "quantum-tree"},
	}
	for _, tc := range cases {
		_, err := tc.spec.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: Validate() err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	// The CLI's -engine flag checks names against the same registry.
	for name, want := range map[string]EngineKind{"lsm": LSM, "btree": BTree, "betree": Betree} {
		if got, err := ParseEngine(name); err != nil || got != want {
			t.Fatalf("ParseEngine(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Fatal("ParseEngine(\"bogus\") should error")
	}
}

func TestParseExperimentExpandsGrid(t *testing.T) {
	doc := []byte(`{
		"name": "grid",
		"engines": ["lsm", "betree"],
		"read_fractions": [0.05, 0.95],
		"queue_depths": [1, 16],
		"scales": [2048],
		"duration": "20m",
		"sample_every": "30s",
		"seed": 9,
		"tunables": {"betree": {"epsilon": "0.4"}}
	}`)
	exp, err := ParseExperiment(doc)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := exp.Specs(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 8 {
		t.Fatalf("expected 2x2x2x1 = 8 cells, got %d", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate cell name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Duration != 20*time.Minute || s.Seed != 9 || s.Scale != 2048 {
			t.Fatalf("base fields not applied: %+v", s)
		}
		switch s.Engine {
		case Betree:
			if s.Tunables["epsilon"] != "0.4" {
				t.Fatalf("betree cell missing its tunables: %+v", s.Tunables)
			}
		case LSM:
			if len(s.Tunables) != 0 {
				t.Fatalf("lsm cell should have no tunables: %+v", s.Tunables)
			}
		}
	}
	// Tunable maps must not be shared between cells.
	var betreeCells []Spec
	for _, s := range specs {
		if s.Engine == Betree {
			betreeCells = append(betreeCells, s)
		}
	}
	betreeCells[0].Tunables["epsilon"] = "0.9"
	if betreeCells[1].Tunables["epsilon"] != "0.4" {
		t.Fatal("cells share one tunables map")
	}
	// Quick mode shortens every cell.
	quick, err := exp.Specs(true)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range quick {
		if s.Duration != 10*time.Minute {
			t.Fatalf("quick should halve 20m to 10m, got %v", s.Duration)
		}
	}
}

func TestParseExperimentErrors(t *testing.T) {
	if _, err := ParseExperiment([]byte(`{"engnes": ["lsm"]}`)); err == nil {
		t.Fatal("typo'd field should error")
	}
	if _, err := ParseExperiment([]byte(`{"engines": ["fractal-tree"]}`)); err == nil {
		t.Fatal("unknown engine should error")
	}
	if _, err := ParseExperiment([]byte(`{"tunables": {"fractal-tree": {"x": "1"}}}`)); err == nil {
		t.Fatal("tunables for an unknown engine should error")
	}
	if _, err := ParseExperiment([]byte(`{"duration": "three hours"}`)); err == nil {
		t.Fatal("malformed duration should error")
	}
	exp, err := ParseExperiment([]byte(`{"read_fractions": [2.0], "scale": 2048}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exp.Specs(false); err == nil {
		t.Fatal("expansion should fail validation on a bad read fraction")
	}
}

// TestResultsJSONRoundTrip: a Result file (specs embedded) must decode
// back to the same steady-state numbers and re-runnable specs.
func TestResultsJSONRoundTrip(t *testing.T) {
	res, err := Run(Spec{
		Engine:   BTree,
		Scale:    4096,
		Duration: 8 * time.Minute,
		Seed:     2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResultsJSON(&buf, []*Result{res}); err != nil {
		t.Fatal(err)
	}
	var decoded []*Result
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 1 {
		t.Fatalf("expected 1 result, got %d", len(decoded))
	}
	if decoded[0].Steady != res.Steady {
		t.Fatalf("steady stats diverged: %+v vs %+v", decoded[0].Steady, res.Steady)
	}
	spec, err := decoded[0].Spec.Validate()
	if err != nil {
		t.Fatalf("embedded spec no longer validates: %v", err)
	}
	if !reflect.DeepEqual(spec, res.Spec) {
		t.Fatalf("embedded spec diverged:\n%+v\nvs\n%+v", spec, res.Spec)
	}
}
