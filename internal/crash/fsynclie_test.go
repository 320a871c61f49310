package crash

// Scripted fsync-lie regressions: a single replica over a lying device
// either recovers to a state consistent with some acknowledged history
// or refuses LOUDLY — it must never come back with silently invented
// or corrupt data. The pinned seeds prove each engine's loud-detection
// path actually fires (a sweep that never went loud would be testing
// nothing), and pin the detection message so it can't silently rot.

import (
	"strings"
	"testing"

	"ptsbench/internal/faultdev"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
)

// fsyncLieOutcome runs one scripted trial: a put/flush workload over a
// device whose barriers lie, a power cut mid-stream, then recovery.
// Returns whether recovery refused loudly and with what message; on a
// quiet recovery it verifies every surviving value matches something
// the workload actually acknowledged.
func fsyncLieOutcome(t *testing.T, engName string, seed uint64) (bool, string) {
	t.Helper()
	spec, err := Spec{Engine: engName, Seed: seed}.Validate()
	if err != nil {
		t.Fatal(err)
	}
	// High lie rate, and the power cut lands right after the final
	// checkpoint: when that checkpoint's commit sync lies, its whole
	// window (nodes, meta, manifest, journal recycling) is still
	// volatile at the cut, and the drop/torn resolution at power-on
	// turns the lie into real damage for recovery to catch.
	plan := faultdev.Plan{
		Seed:         seed,
		FsyncLieProb: 0.6,
		DropProb:     0.5,
		TornProb:     0.5,
	}
	sh, err := stack.Build(layout(spec, 0, 0, plan, ""))
	if err != nil {
		t.Fatal(err)
	}
	const keys = 40
	acked := make(map[uint64][][]byte, keys)
	var now sim.Duration
	for i := 0; i < 160; i++ {
		id := uint64(i % keys)
		val := []byte{byte(i / keys), byte(id)}
		now, err = sh.Engine.Put(now, kv.EncodeKey(id), val, 0)
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		acked[id] = append(acked[id], val)
		if (i+1)%25 == 0 {
			now, err = sh.Engine.FlushAll(now)
			if err != nil {
				t.Fatalf("flush at %d: %v", i, err)
			}
		}
	}
	now, err = sh.Engine.FlushAll(now)
	if err != nil {
		t.Fatalf("final flush: %v", err)
	}
	if sh.Fault.Injected().FsyncLies == 0 {
		t.Fatalf("seed %d: no fsync lies injected — trial is vacuous", seed)
	}
	if err := sh.PowerCycle(); err != nil {
		t.Fatal(err)
	}
	reng, rnow, rerr := sh.Recover(sim.NewRNG(900), now)
	if rerr != nil {
		return true, rerr.Error()
	}
	// Quiet recovery: with one copy, writes the lying barrier claimed
	// durable may be gone — that loss is what replication's read-repair
	// exists for — but whatever IS served must be an acknowledged value,
	// never invented or corrupt bytes.
	for id := uint64(0); id < keys; id++ {
		_, got, found, gerr := reng.Get(rnow, kv.EncodeKey(id))
		if gerr != nil {
			t.Fatalf("seed %d: quiet recovery then failing read of key %d: %v", seed, id, gerr)
		}
		if !found {
			continue
		}
		ok := false
		for _, v := range acked[id] {
			if len(got) == len(v) && got[0] == v[0] && got[1] == v[1] {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("seed %d: key %d recovered to %v, never acknowledged", seed, id, got)
		}
	}
	return false, ""
}

// TestFsyncLieLoudDetection pins, per engine, a seed whose trial ends
// in a loud recovery refusal, and the detection message it produces.
// The cowtree engines catch the lie via the checkpoint sequence floor;
// the LSM catches it via manifest/SST integrity (a referenced table
// whose acknowledged image never landed).
func TestFsyncLieLoudDetection(t *testing.T) {
	cases := []struct {
		engine  string
		seed    uint64
		message string
	}{
		{"btree", 11, "below checkpoint floor"},
		{"betree", 11, "below checkpoint floor"},
		{"lsm", 19, "footer magic not found"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.engine, func(t *testing.T) {
			loud, msg := fsyncLieOutcome(t, c.engine, c.seed)
			if !loud {
				t.Fatalf("seed %d recovered quietly; want loud refusal", c.seed)
			}
			if !strings.Contains(msg, c.message) {
				t.Fatalf("loud message drifted:\ngot  %s\nwant substring %q", msg, c.message)
			}
		})
	}
}

// TestFsyncLieSweep runs every engine across a band of seeds: every
// outcome must be loud or acknowledged-consistent, and at least one
// seed per engine must go loud.
func TestFsyncLieSweep(t *testing.T) {
	for _, engName := range []string{"lsm", "btree", "betree"} {
		engName := engName
		t.Run(engName, func(t *testing.T) {
			t.Parallel()
			louds := 0
			for seed := uint64(1); seed <= 20; seed++ {
				loud, msg := fsyncLieOutcome(t, engName, seed)
				if loud {
					louds++
					t.Logf("seed %d loud: %s", seed, msg)
				}
			}
			if louds == 0 {
				t.Fatal("no seed produced a loud recovery refusal")
			}
		})
	}
}
