package crash

import "ptsbench/internal/faultdev"

// Fault severity of a power cycle: unbarriered writes drop or tear with
// these probabilities at power-on. The harness never injects bit-rot —
// corrupting *durable* state is beyond the crash-consistency contract
// it verifies (scripted tests use Plan.RotPages directly).
const (
	dropProb = 0.25
	tornProb = 0.5
)

// Scenario is the fault one trial injects, reduced to the decisions
// that differ between trials. Everything else — op log, calibration,
// sampling, the serve loop, the model check — is the one pipeline in
// runTrial.
type Scenario struct {
	// Name labels the scenario in failure messages.
	Name string
	// plan is the fault plan of the one victim stack, landing on its
	// sampled write; every other stack runs fault-free.
	plan func(spec Spec, write int64) faultdev.Plan
	// machine: the fault takes the whole machine, not one replica. The
	// serve loop stops at the cut, an ACKNOWLEDGED op of the window is
	// ambiguous too (nothing kept the memory that held it), and the
	// aftermath is a restart of every stack instead of the victim's
	// rejoin. There is no surviving authority to reconcile from, which
	// is why an unreplicated trial is not a replica group of one.
	machine bool
	// autoFailover hands replica-kill authority to the serving layer;
	// otherwise the harness kills the victim when it sees the cut.
	autoFailover bool
	// wholeLog: the fault window — where an op on the victim's shard may
	// error and its reads are not checkable — is the whole log rather
	// than the batch the cut fired in, and no cut is waited for.
	wholeLog bool
	// rebuildOnLoud: the victim's image may be damaged beyond the
	// crash-consistency contract, so a loud recovery refusal is the
	// detection contract working and the replica is rebuilt from its
	// peers; otherwise refused recovery fails the trial.
	rebuildOnLoud bool
}

// PowerCut is the whole-machine trial (Replicas == 1): the victim
// shard's device loses power at the sampled write, mid-batch, and takes
// the machine with it. Every shard is power-cycled (the victim's
// unbarriered writes drop or tear; the other plans are empty, so their
// pending writes survive), recovered through the engine registry and
// served by a fresh store. In the cut batch the victim shard's ops are
// ambiguous — acknowledged in memory, durable only up to an unknown
// prefix — while other shards completed the batch intact.
var PowerCut = &Scenario{Name: "power cut", plan: cutPlan, machine: true}

// ReplicaKill is the replicated trial: instead of cutting power on the
// whole machine, the fault plan cuts ONE replica's device inside a
// replica group (internal/replica) while the machine keeps running. The
// harness then proves the replication layer masks the failure end to
// end:
//
//  1. the group keeps acknowledging operations through the kill (the
//     dying replica's device ignores I/O rather than erroring, exactly
//     like a dropped-off NVMe namespace; any engine error it does cause
//     mid-batch is confined to the detection window),
//  2. failover — the dead replica is removed from the group between
//     pump rounds and the degraded group still serves every
//     acknowledged write,
//  3. the killed replica recovers from its OWN durable image (power-on
//     resolves torn/dropped unbarriered writes, recovery runs through
//     the engine registry), rejoins stale, and Reconcile repairs it
//     from the surviving authority,
//  4. afterwards every replica of every group is entry-identical and
//     the whole store still satisfies the reference model, including a
//     post-failover write/flush/read cycle.
//
// The ambiguity window is much narrower than the whole-machine trial's:
// live replicas never lose memory, so any operation the group
// acknowledged without error is durable at the group — it is verified
// EXACTLY, not as an allowed-state set. Only operations that errored in
// the detection window (the chain or quorum apply aborted part-way) are
// ambiguous, and reads served in that window may have come from the
// dying replica, so they are not checkable.
var ReplicaKill = &Scenario{Name: "replica kill", plan: cutPlan}

// ErrorPlan is the error-model trial: instead of cutting power, the
// fault plan arms the host-stack error model (internal/faultdev) on ONE
// replica of one shard at a sampled write boundary — transient EIOs,
// short writes, misdirected writes, lying fsyncs — and the harness
// proves the stack degrades instead of corrupting:
//
//  1. the serving layer absorbs transient errors with deterministic
//     virtual-time retries and fails persistently-erroring replicas
//     out of their groups on its own (store.Stack.AutoFailover), so
//     the op log keeps acknowledging end to end,
//  2. down its damaged replica, the group still holds every
//     acknowledged write — zero loss at failover,
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
// Ops on the victim's shard may error at any point once the model is
// armed — retry/failover absorbs almost all of them, but an op that
// exhausts its budget surfaces its error, and its effect on the group
// is then ambiguous. Serving-phase reads on the victim's shard are not
// checkable: until its damage is DETECTED the victim legally serves
// reads (chain tail, quorum first-consistent), and silently stale data
// is exactly what the end-state verification — after failover,
// recovery, reconcile — convicts the stack of keeping or repairs.
// Error-free shards must stay perfect.
var ErrorPlan = &Scenario{Name: "error plan", plan: errorPlan, autoFailover: true, wholeLog: true, rebuildOnLoud: true}

// Scenario resolves the fault a validated spec's trials inject. This is
// the only place the spec's shape is turned into that decision.
func (s Spec) Scenario() *Scenario {
	switch {
	case len(s.ErrorKinds) > 0:
		return ErrorPlan
	case s.Replicas > 1:
		return ReplicaKill
	}
	return PowerCut
}

// cutPlan cuts the victim's power at the sampled write, tearing the
// in-flight write at random (CutKeepPages 0).
func cutPlan(_ Spec, write int64) faultdev.Plan {
	return faultdev.Plan{CutAfterWrites: write, DropProb: dropProb, TornProb: tornProb}
}

// errorPlan arms the error model at the sampled write (a prefix of the
// log runs clean, like the cut trials); every requested kind then fires
// per-op with ErrorProb. The fsynclie kind also carries the power-cycle
// severities: a lied-about barrier leaves its window volatile, and the
// trial's power cycle is what turns the lie into actual damage.
func errorPlan(spec Spec, write int64) faultdev.Plan {
	p := faultdev.Plan{ArmAfterWrites: write}
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
