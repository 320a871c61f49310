package crash

// Error-plan trials: instead of cutting power, the fault plan arms the
// host-stack error model (internal/faultdev) on ONE replica of one
// shard at a sampled write boundary — transient EIOs, short writes,
// misdirected writes, lying fsyncs — and the harness proves the stack
// degrades instead of corrupting:
//
//  1. the serving layer absorbs transient errors with deterministic
//     virtual-time retries and fails persistently-erroring replicas
//     out of their groups on its own (store.Stack.AutoFailover), so
//     the op log keeps acknowledging end to end,
//  2. down its damaged replica, the group still holds every
//     acknowledged write (verifyDegraded) — zero loss at failover,
//  3. the damaged replica is power-cycled and recovered from whatever
//     its image really holds. Recovery either succeeds (any staleness
//     is repaired by Reconcile like a normal rejoin) or refuses
//     LOUDLY — page parse/CRC failures, the cowtree sequence-floor
//     check, the LSM table-id binding. A loud refusal is the detection
//     contract working, not a trial failure: the replica is rebuilt
//     empty and Reconcile copies it back from the surviving authority,
//     exactly like an operator replacing a bad disk,
//  4. afterwards every replica is entry-identical and the full model
//     verification passes — zero acknowledged-write loss in every
//     case, deterministically replayable from the seed line.
//
// Serving-phase reads on the victim's shard are not checkable: until
// its damage is DETECTED the victim legally serves reads (chain tail,
// quorum first-consistent), and silently stale data is exactly what
// the end-state verification — after failover, recovery, reconcile —
// convicts the stack of keeping or repairs.

import (
	"fmt"

	"ptsbench/internal/faultdev"
	"ptsbench/internal/kvtest"
	"ptsbench/internal/replica"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
	"ptsbench/internal/store"
)

// errorPlan builds the victim replica's fault plan: the error model
// arms at the sampled write (a prefix of the log runs clean, like the
// cut trials) and every requested kind fires per-op with ErrorProb.
// The fsynclie kind also carries the harness's drop/torn severities:
// a lied-about barrier leaves its window volatile, and the trial's
// power cycle is what turns the lie into actual damage.
func errorPlan(spec Spec, seed uint64, armWrite int64) faultdev.Plan {
	p := faultdev.Plan{
		Seed:           seed*0x2545F4914F6CDD1D + 1,
		ArmAfterWrites: armWrite,
	}
	for _, k := range spec.ErrorKinds {
		switch k {
		case "eio":
			p.ReadEIOProb = spec.ErrorProb
			p.WriteEIOProb = spec.ErrorProb
		case "short":
			p.ShortProb = spec.ErrorProb
		case "misdirect":
			p.MisdirectProb = spec.ErrorProb
		case "fsynclie":
			p.FsyncLieProb = spec.ErrorProb
			p.DropProb = dropProb
			p.TornProb = tornProb
		}
	}
	return p
}

// runErrorTrial executes one (spec, seed) error-plan trial: calibrate,
// arm the error model on the sampled replica, serve the whole op log
// through retries and automatic failover, then recover or rebuild the
// victim and verify zero acknowledged-write loss.
func runErrorTrial(spec Spec, seed uint64) (*Report, error) {
	ops := genOps(spec, seed)
	dir, cleanup, err := trialDir(spec, seed)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Pass 1 (calibration): identical stacks, no faults — pass 2's Nth
	// device write on any replica is pass 1's Nth write, so the sampled
	// arm point is meaningful.
	writes, err := calibrate(spec, ops, passDir(dir, "calib"))
	if err != nil {
		return nil, fmt.Errorf("calibration (fault-free) pass failed: %w", err)
	}
	victimShard, victimRep, armWrite := sampleReplicaCut(spec, seed, writes)
	if armWrite == 0 {
		return nil, fmt.Errorf("op log produced no device writes to arm at")
	}

	rep := &Report{Spec: spec, Seed: seed, CutShard: victimShard, CutReplica: victimRep, CutWrite: armWrite}
	plans := noFaults(spec)
	plans[victimShard][victimRep] = errorPlan(spec, seed, armWrite)
	env, err := buildEnv(spec, plans, passDir(dir, "fault"), true)
	if err != nil {
		return rep, err
	}
	defer env.Close()
	st, group, victim := env.Store, env.Groups[victimShard], env.Stacks[victimShard][victimRep]

	// Pass 2: replay the WHOLE op log. Errors fire probabilistically
	// from the arm point on; the serving layer retries, fails the
	// victim over when damage turns persistent, and the machine never
	// stops acknowledging.
	model := kvtest.NewModel()
	var lastDone sim.Duration
	for start := 0; start < len(ops); start += batchSize {
		comps := submitBatch(st, ops, start, min(start+batchSize, len(ops)))
		for _, c := range comps {
			lastDone = max(lastDone, c.Done)
		}
		if err := applyErrorBatch(model, ops, comps, victimShard, spec.Shards); err != nil {
			return rep, err
		}
	}
	rep.CutOp = len(ops)
	rep.Injected = victim.Fault.Injected().Total()

	// Serving may already have failed the victim out (a persistent
	// error through AutoFailover); otherwise remove it now — its device
	// is known-damaged, and the degraded check below must not let the
	// damaged copy answer for the group.
	if group.Alive(victimRep) {
		if err := group.Kill(victimRep); err != nil {
			return rep, err
		}
	}
	if err := st.ClearFailure(victimShard); err != nil {
		return rep, err
	}

	// Degraded serving: down the damaged replica, the group must hold
	// every key to its allowed states — zero acknowledged-write loss.
	now, err := verifyDegraded(st, model, lastDone)
	if err != nil {
		return rep, fmt.Errorf("degraded group after failing shard %d replica %d (armed at write %d): %w",
			victimShard, victimRep, armWrite, err)
	}

	// Power-cycle the victim: unbarriered writes resolve (for fsynclie,
	// the lied-about windows drop or tear here), the error model
	// disarms, and the file backend is proven byte-identical to the
	// resolved image.
	if err := victim.PowerCycle(); err != nil {
		return rep, fmt.Errorf("shard %d replica %d power-on: %w", victimShard, victimRep, err)
	}
	if err := verifyFileImage(victim); err != nil {
		return rep, fmt.Errorf("shard %d replica %d after power-on (armed at write %d): %w",
			victimShard, victimRep, armWrite, err)
	}

	// Recover the victim from its damaged image. A loud refusal is the
	// detection contract working — the stack refused to serve damaged
	// state — and downgrades the rejoin to a rebuild-from-peers: a
	// fresh empty stack that Reconcile repopulates from the authority.
	reng, rnow, rerr := recoverStack(spec, victim, victimShard, victimRep, now)
	if rerr != nil {
		rep.RecoveredLoud = true
		fresh, err := stack.Build(layout(spec, victimShard, victimRep, faultdev.Plan{}, passDir(dir, "rebuild")))
		if err != nil {
			return rep, fmt.Errorf("rebuilding shard %d replica %d after loud recovery refusal (%v): %w",
				victimShard, victimRep, rerr, err)
		}
		victim.Close()
		env.Stacks[victimShard][victimRep] = fresh
		reng, rnow = fresh.Engine, now
	}
	if err := group.Revive(victimRep, replica.Member{Engine: reng, Start: rnow}); err != nil {
		return rep, err
	}
	recNow, err := group.Reconcile(max(now, rnow))
	if err != nil {
		return rep, fmt.Errorf("reconciling shard %d replica %d: %w", victimShard, victimRep, err)
	}

	// Reconvergence and full model verification, exactly like the cut
	// trials: every replica entry-identical, every key in its allowed
	// states, post-failover write/flush/read cycle intact.
	if err := verifyConverged(env.Groups, recNow); err != nil {
		return rep, fmt.Errorf("after reconciling shard %d replica %d: %w", victimShard, victimRep, err)
	}
	if err := verify(rep, st, model, spec, []sim.Duration{recNow}); err != nil {
		return rep, fmt.Errorf("errors armed at shard %d replica %d write %d: %w", victimShard, victimRep, armWrite, err)
	}
	return rep, nil
}

// applyErrorBatch folds one batch's completions into the model. Ops on
// the victim's shard may error at any point once the model is armed —
// retry/failover absorbs almost all of them, but an op that exhausts
// its budget surfaces its error, and its effect on the group is then
// ambiguous (the chain or quorum apply may have stopped part-way).
// Reads on the victim shard are skipped entirely: the damaged replica
// may legally serve them before detection. Error-free shards must stay
// perfect.
func applyErrorBatch(model *kvtest.Model, ops []opRec, comps []store.Completion, victimShard, shards int) error {
	for _, c := range comps {
		idx := int(c.Seq)
		op := ops[idx]
		onVictim := store.ShardOf(op.id, shards) == victimShard
		if c.Err != nil && !onVictim {
			return fmt.Errorf("op %d (%v key %d) failed on an error-free shard: %w", idx, op.kind, op.id, c.Err)
		}
		switch op.kind {
		case store.Put:
			if c.Err != nil {
				model.AllowPut(op.id, op.val)
			} else {
				model.Put(op.id, op.val)
			}
		case store.Delete:
			if c.Err != nil {
				model.AllowDelete(op.id)
			} else {
				model.Delete(op.id)
			}
		default: // Get
			if onVictim {
				continue
			}
			if !model.Check(op.id, c.Value, c.Found) {
				return fmt.Errorf("op %d: get key %d outside its allowed states (found=%v, ambiguous=%v)",
					idx, op.id, c.Found, model.Ambiguous(op.id))
			}
		}
	}
	return nil
}
