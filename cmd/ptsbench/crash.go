package main

import (
	"fmt"
	"time"

	"ptsbench/internal/crash"
)

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
