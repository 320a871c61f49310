package main

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"time"

	"ptsbench/internal/crash"
)

// tunableFlags collects repeated -tunable K=V flags into a map.
type tunableFlags map[string]string

func (t tunableFlags) String() string { return fmt.Sprint(map[string]string(t)) }

func (t tunableFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want K=V, got %q", s)
	}
	t[k] = v
	return nil
}

// parsedError is an error fs.Parse returned. The flag package has
// already printed it with the usage, so main only exits.
type parsedError struct{ error }

func (e parsedError) Unwrap() error { return e.error }

// parseCrashArgs reads the crash subcommand's flags into a Spec: the
// inverse of crash.ReproLine.
func parseCrashArgs(args []string) (crash.Spec, error) {
	fs := flag.NewFlagSet("crash", flag.ContinueOnError)
	eng := fs.String("engine", "", "engine to crash-test (lsm, btree, betree)")
	shards := fs.Int("shards", 1, "store shard count")
	ops := fs.Int("ops", 400, "recorded op-log length")
	keys := fs.Int("keys", 0, "key-space bound (0 = ops/8, min 16)")
	seed := fs.Uint64("seed", 1, "trial seed (trial t runs with seed+t)")
	trials := fs.Int("trials", 1, "independent seeds to run")
	cutShard := fs.Int("cut-shard", -1, "pin the cut shard; needs -cut-write (-1 = sample shard and write by write traffic)")
	cutWrite := fs.Int64("cut-write", 0, "pin the 1-based cut write within -cut-shard; needs -cut-shard (0 = sample)")
	replicas := fs.Int("replicas", 1, "replicas per shard (>1 kills one replica's device instead of the machine)")
	replMode := fs.String("repl-mode", "", "replication mode for -replicas >1: chain (default) or quorum (needs >=3)")
	errKinds := fs.String("errors", "", "comma-separated error kinds to arm on one replica (eio, short, misdirect, fsynclie); needs -replicas >=2")
	errProb := fs.Float64("error-prob", 0, "per-op probability of each armed error kind (0 = default 0.05)")
	tunables := tunableFlags{}
	fs.Var(tunables, "tunable", "engine knob override K=V on top of the durability settings (repeatable)")
	device := fs.String("device", "sim", "backing device: sim (flash simulator) or file (real files via internal/filedev)")
	dir := fs.String("dir", "", "file device only: keep per-trial shard images under this directory (default: temp, removed)")
	if err := fs.Parse(args); err != nil {
		return crash.Spec{}, parsedError{err}
	}
	if *eng == "" {
		return crash.Spec{}, errors.New("-engine is required")
	}
	if *cutShard == 0 && *cutWrite == 0 {
		// As a Spec this is the zero value, which samples; on the
		// command line it is an explicit half pin like any other.
		return crash.Spec{}, errors.New("-cut-shard needs -cut-write (pin both or neither)")
	}
	spec := crash.Spec{
		Engine:    *eng,
		Shards:    *shards,
		Ops:       *ops,
		Keys:      *keys,
		Seed:      *seed,
		Trials:    *trials,
		CutShard:  *cutShard,
		CutWrite:  *cutWrite,
		Replicas:  *replicas,
		ReplMode:  *replMode,
		ErrorProb: *errProb,
		Device:    *device,
		Dir:       *dir,
	}
	if *errKinds != "" {
		spec.ErrorKinds = strings.Split(*errKinds, ",")
	}
	if len(tunables) > 0 {
		spec.Tunables = tunables
	}
	return spec, nil
}

// runCrash executes the randomized crash-recovery harness and prints a
// one-line report. On failure the returned error already begins with
// the exact `ptsbench crash` invocation that replays the trial.
func runCrash(spec crash.Spec) error {
	start := time.Now()
	rep, err := crash.Run(spec)
	if err != nil {
		return err
	}
	s := rep.Spec
	checked := fmt.Sprintf("%d keys checked (%d ambiguous), %d scan entries verified", rep.Checked, rep.Ambiguous, rep.Scanned)
	switch s.Scenario() {
	case crash.ErrorPlan:
		fmt.Printf("crash: %s x%d shard(s) x%d %s replica(s), errors %v @ %g: %d trial(s) passed\n",
			s.Engine, s.Shards, s.Replicas, s.ReplMode, s.ErrorKinds, s.ErrorProb, s.Trials)
		outcome := "recovered"
		if rep.RecoveredLoud {
			outcome = "refused loudly, rebuilt from peers"
		}
		fmt.Printf("  last trial: seed %d, armed shard %d replica %d at write %d; %d error(s) injected, victim %s; %s\n",
			rep.Seed, rep.CutShard, rep.CutReplica, rep.CutWrite, rep.Injected, outcome, checked)
	case crash.ReplicaKill:
		fmt.Printf("crash: %s x%d shard(s) x%d %s replica(s): %d trial(s) passed\n",
			s.Engine, s.Shards, s.Replicas, s.ReplMode, s.Trials)
		fmt.Printf("  last trial: seed %d, killed shard %d replica %d at write %d (op %d); %s\n",
			rep.Seed, rep.CutShard, rep.CutReplica, rep.CutWrite, rep.CutOp, checked)
	default:
		fmt.Printf("crash: %s x%d shard(s): %d trial(s) passed\n", s.Engine, s.Shards, s.Trials)
		fmt.Printf("  last trial: seed %d, cut at shard %d write %d (op %d); %s\n",
			rep.Seed, rep.CutShard, rep.CutWrite, rep.CutOp, checked)
	}
	fmt.Printf("(completed in %v)\n", time.Since(start).Round(time.Millisecond))
	return nil
}
