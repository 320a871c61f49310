// Package crash is the randomized crash-recovery harness: it runs a
// seed-determined op log against an engine over fault-injecting devices
// (internal/faultdev), lands a fault on one stack at a sampled write
// boundary, recovers what the fault took down through the engine
// registry's Recover path, and checks the resulting store against the
// internal/kvtest reference model — every acknowledged-and-synced write
// present, every in-flight write either absent or fully intact, scans
// strictly ordered. Every trial runs the one pipeline in runTrial; what
// the fault is and what it takes down is a Scenario (PowerCut,
// ReplicaKill, ErrorPlan), resolved from the spec by Spec.Scenario.
//
// A trial is fully determined by (Spec, seed): the op stream, the cut
// point sampling and the fault resolution all draw from seeded RNGs, so
// any failure shrinks to a one-line `ptsbench crash` reproduction.
package crash

import (
	"fmt"

	"ptsbench/internal/engine"
)

// Spec declares one crash-recovery experiment. The zero value is not
// runnable; Validate fills defaults and fails fast on anything
// malformed, mirroring the experiment spec discipline of internal/core.
type Spec struct {
	// Engine names a registered engine driver ("lsm", "btree",
	// "betree").
	Engine string `json:"engine"`
	// Shards is the store's shard count (each shard runs its own engine
	// on its own faulty device; the cut takes all of them down at
	// once). Default 1.
	Shards int `json:"shards,omitempty"`
	// Ops is the length of the recorded op log. Default 400.
	Ops int `json:"ops,omitempty"`
	// Keys bounds the key space the op log draws from. Default
	// max(16, Ops/8).
	Keys int `json:"keys,omitempty"`
	// Seed drives everything: op stream, cut sampling, fault
	// resolution. Trial t runs with Seed+t.
	Seed uint64 `json:"seed"`
	// Trials is the number of independent seeds to run. Default 1.
	Trials int `json:"trials,omitempty"`
	// CutShard and CutWrite pin the fault to one shard and to the
	// 1-based host write it lands on within that shard. Pin both or
	// neither: unpinned — CutShard -1, or both left zero — samples the
	// shard and the write in one draw, proportionally to write traffic.
	CutShard int   `json:"cut_shard,omitempty"`
	CutWrite int64 `json:"cut_write,omitempty"`
	// Replicas turns every shard into a replica group of R complete
	// engine stacks (internal/replica), each behind its own fault
	// wrapper. The cut then kills ONE replica's device — the machine
	// stays up and every operation keeps acknowledging — and the trial
	// verifies zero acknowledged-write loss at the group, recovery of
	// the killed replica from its own durable image, and byte-comparable
	// reconvergence of every replica after Reconcile. Default 1 (the
	// whole-machine power-cut trial). The cut replica is always sampled
	// by write traffic within the cut shard; CutShard/CutWrite pins keep
	// their meaning.
	Replicas int `json:"replicas,omitempty"`
	// ReplMode is the replication mode for Replicas > 1: "chain" or
	// "quorum" (default chain). Quorum needs Replicas >= 3 here: killing
	// a replica of a 2-group drops it below its write majority, so no
	// degraded traffic could run.
	ReplMode string `json:"repl_mode,omitempty"`
	// ErrorKinds switches the trial from a power cut to the host-stack
	// error model: the listed kinds ("eio", "short", "misdirect",
	// "fsynclie") arm on ONE replica of one shard at the sampled write
	// and fire per-op with ErrorProb for the rest of the log. The trial
	// then proves graceful degradation — retries absorb transient
	// errors, persistent errors fail the replica out automatically, the
	// damaged replica is power-cycled and recovered (loud refusal is
	// the detection contract working and triggers a rebuild from the
	// surviving authority) — and zero acknowledged-write loss at the
	// group. Requires Replicas >= 2. CutShard/CutWrite pins keep their
	// meaning, aiming the ARM point instead of a cut.
	ErrorKinds []string `json:"error_kinds,omitempty"`
	// ErrorProb is the per-op probability of each armed error kind.
	// Default 0.05. Only meaningful with ErrorKinds.
	ErrorProb float64 `json:"error_prob,omitempty"`
	// Tunables are extra engine knob overrides, applied on top of the
	// harness's durability defaults (per-record journal sync).
	Tunables map[string]string `json:"tunables,omitempty"`
	// Device selects the backing block device: "sim" (default) runs the
	// flash simulator, "file" runs real backing files through
	// internal/filedev (deterministic fixed I/O costs) under the same
	// fault wrapper — the harness then additionally checks after every
	// power-on that the backing file matches the wrapper's resolved
	// durable image byte for byte.
	Device string `json:"device,omitempty"`
	// Dir, file device only, is the directory that keeps each trial's
	// shard images (under trial-SEED/{calib,fault}/) for post-mortem
	// inspection. Default: a temp directory removed when the trial ends.
	Dir string `json:"dir,omitempty"`
}

// Validate fills defaults and fails fast on malformed fields. It
// returns the normalized spec.
func (s Spec) Validate() (Spec, error) {
	if s.Engine == "" {
		return s, fmt.Errorf("crash: engine is required")
	}
	if _, err := engine.Lookup(s.Engine); err != nil {
		return s, fmt.Errorf("crash: %w", err)
	}
	if s.Shards == 0 {
		s.Shards = 1
	}
	if s.Shards < 1 || s.Shards > 64 {
		return s, fmt.Errorf("crash: shards must be in [1,64] (got %d)", s.Shards)
	}
	if s.Ops == 0 {
		s.Ops = 400
	}
	if s.Ops < 1 {
		return s, fmt.Errorf("crash: ops must be positive (got %d)", s.Ops)
	}
	if s.Keys == 0 {
		s.Keys = s.Ops / 8
		if s.Keys < 16 {
			s.Keys = 16
		}
	}
	if s.Keys < 1 {
		return s, fmt.Errorf("crash: keys must be positive (got %d)", s.Keys)
	}
	if s.Trials == 0 {
		s.Trials = 1
	}
	if s.Trials < 1 {
		return s, fmt.Errorf("crash: trials must be positive (got %d)", s.Trials)
	}
	if s.CutShard == 0 && s.CutWrite == 0 {
		// The zero value is the common JSON-default case and samples; an
		// explicit shard 0 pin comes with its CutWrite.
		s.CutShard = -1
	}
	if s.CutShard >= s.Shards {
		return s, fmt.Errorf("crash: cut_shard %d out of range (shards %d)", s.CutShard, s.Shards)
	}
	if s.CutWrite < 0 {
		return s, fmt.Errorf("crash: cut_write must be >= 0 (got %d)", s.CutWrite)
	}
	if (s.CutShard >= 0) != (s.CutWrite > 0) {
		return s, fmt.Errorf("crash: cut_shard %d with cut_write %d pins half a cut; pin both or neither", s.CutShard, s.CutWrite)
	}
	if s.Replicas == 0 {
		s.Replicas = 1
	}
	if s.Replicas < 1 || s.Replicas > 5 {
		return s, fmt.Errorf("crash: replicas must be in [1,5] (got %d)", s.Replicas)
	}
	switch s.ReplMode {
	case "":
		if s.Replicas > 1 {
			s.ReplMode = "chain"
		}
	case "chain", "quorum":
	default:
		return s, fmt.Errorf("crash: unknown repl_mode %q (have chain, quorum)", s.ReplMode)
	}
	if s.Replicas > 1 && s.ReplMode == "quorum" && s.Replicas < 3 {
		return s, fmt.Errorf("crash: quorum with %d replicas cannot stay writable after a replica kill; use replicas >= 3 or chain", s.Replicas)
	}
	if s.ErrorProb != 0 && len(s.ErrorKinds) == 0 {
		return s, fmt.Errorf("crash: error_prob requires error_kinds")
	}
	if len(s.ErrorKinds) > 0 {
		seen := make(map[string]bool, len(s.ErrorKinds))
		for _, k := range s.ErrorKinds {
			switch k {
			case "eio", "short", "misdirect", "fsynclie":
			default:
				return s, fmt.Errorf("crash: unknown error kind %q (have eio, short, misdirect, fsynclie)", k)
			}
			if seen[k] {
				return s, fmt.Errorf("crash: duplicate error kind %q", k)
			}
			seen[k] = true
		}
		if s.ErrorProb == 0 {
			s.ErrorProb = 0.05
		}
		if s.ErrorProb < 0 || s.ErrorProb > 1 {
			return s, fmt.Errorf("crash: error_prob must be in (0,1] (got %g)", s.ErrorProb)
		}
		if s.Replicas < 2 {
			return s, fmt.Errorf("crash: error trials need replicas >= 2 (a single copy has nothing to fail the damaged replica over to)")
		}
	}
	switch s.Device {
	case "":
		s.Device = "sim"
	case "sim", "file":
	default:
		return s, fmt.Errorf("crash: unknown device %q (want sim or file)", s.Device)
	}
	if s.Dir != "" && s.Device != "file" {
		return s, fmt.Errorf("crash: dir requires the file device")
	}
	return s, nil
}

// DurabilityTunables returns the per-engine knob overrides that make
// every acknowledged write durable at its completion time — the
// contract the harness verifies. Small structure sizes keep trees and
// memtables rotating within short op logs.
func DurabilityTunables(eng string) map[string]string {
	switch eng {
	case "lsm":
		return map[string]string{
			"memtable_bytes":  "16384",
			"wal_flush_bytes": "0", // sync the WAL on every put
		}
	default: // cowtree family: btree, betree and future tree engines
		return map[string]string{
			"journal_sync":    "true",
			"leaf_page_bytes": "2048",
		}
	}
}
