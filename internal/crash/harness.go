package crash

import (
	"encoding/binary"
	"fmt"
	"maps"
	"path/filepath"
	"strings"

	"ptsbench/internal/engine"
	"ptsbench/internal/faultdev"
	"ptsbench/internal/kv"
	"ptsbench/internal/kvtest"
	"ptsbench/internal/replica"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
	"ptsbench/internal/store"
)

// batchSize is the ops submitted per store Pump. Batches carrying
// several writes exercise group commit, so torn group syncs are part of
// the sampled fault space.
const batchSize = 16

// Report summarizes one passing trial (the last one, when Trials > 1).
type Report struct {
	Spec       Spec
	Seed       uint64
	CutShard   int
	CutReplica int // replica the fault landed on (always 0 unreplicated)
	CutWrite   int64
	CutOp      int // ops submitted before the machine (or replica) died
	Ambiguous  int // keys with more than one allowed recovered state
	Checked    int // keys verified by point reads
	Scanned    int // entries verified by the full scan
	// Error-plan trials only:
	Injected      int64 // device error-model events the victim fired
	RecoveredLoud bool  // victim recovery refused loudly; replica rebuilt
}

// ReproLine renders the CLI invocation that replays a trial exactly:
// every knob that shapes the op log, the cut sampling or the device
// stack appears, so the line works without consulting the spec it came
// from.
func ReproLine(spec Spec, seed uint64) string {
	line := fmt.Sprintf("ptsbench crash -engine %s -shards %d -ops %d -keys %d -seed %d",
		spec.Engine, spec.Shards, spec.Ops, spec.Keys, seed)
	sc := spec.Scenario()
	if sc != PowerCut {
		line += fmt.Sprintf(" -replicas %d -repl-mode %s", spec.Replicas, spec.ReplMode)
	}
	if sc == ErrorPlan {
		line += fmt.Sprintf(" -errors %s -error-prob %g", strings.Join(spec.ErrorKinds, ","), spec.ErrorProb)
	}
	if spec.CutShard >= 0 && spec.CutWrite > 0 {
		line += fmt.Sprintf(" -cut-shard %d -cut-write %d", spec.CutShard, spec.CutWrite)
	}
	if spec.Device == "file" {
		line += " -device file"
	}
	if spec.Dir != "" {
		line += fmt.Sprintf(" -dir %s", spec.Dir)
	}
	return line
}

// Run validates the spec and executes its trials. On failure the error
// begins with the trial's reproduction line.
func Run(spec Spec) (*Report, error) {
	spec, err := spec.Validate()
	if err != nil {
		return nil, err
	}
	sc := spec.Scenario()
	var rep *Report
	for t := 0; t < spec.Trials; t++ {
		seed := spec.Seed + uint64(t)
		if rep, err = runTrial(spec, seed, sc); err != nil {
			return rep, fmt.Errorf("reproduce: %s\n%w", ReproLine(spec, seed), err)
		}
	}
	return rep, nil
}

// opRec is one recorded op of the deterministic log.
type opRec struct {
	kind store.OpKind
	id   uint64
	val  []byte
}

// genOps builds the seed-determined op log: mostly puts, some deletes
// and reads, values self-describing (key id, op index, seed) so any
// stale or cross-wired value is visible on inspection.
func genOps(spec Spec, seed uint64) []opRec {
	rng := sim.NewRNG(seed ^ 0x9E3779B97F4A7C15)
	ops := make([]opRec, spec.Ops)
	for i := range ops {
		id := rng.Uint64n(uint64(spec.Keys))
		switch r := rng.Uint64n(100); {
		case r < 15:
			ops[i] = opRec{kind: store.Get, id: id}
		case r < 30:
			ops[i] = opRec{kind: store.Delete, id: id}
		default:
			val := make([]byte, 24)
			binary.LittleEndian.PutUint64(val[0:], id)
			binary.LittleEndian.PutUint64(val[8:], uint64(i))
			binary.LittleEndian.PutUint64(val[16:], seed)
			ops[i] = opRec{kind: store.Put, id: id, val: val}
		}
	}
	return ops
}

// streamSeed numbers a stack's engine RNG stream off base (100 at
// build, 900 at recovery): base+i unreplicated, base+i*8+r replicated —
// the two historical numberings, which every committed repro line
// depends on.
func streamSeed(spec Spec, base uint64, i, r int) uint64 {
	if spec.Replicas > 1 {
		return base + uint64(i*8+r)
	}
	return base + uint64(i)
}

// layout describes replica r of shard i (r is always 0 unreplicated):
// the shared small drive — the flash simulator, or with dir set a real
// backing file in dir, whose fixed I/O costs keep both passes of a
// trial write-for-write identical — under a fault wrapper running plan.
// The filesystem mounts on the FAULT wrapper, so every engine write,
// read and sync barrier passes through the fault plan; the inner device
// keeps the iostat counters and is not the content authority for reads
// — the wrapper is. On the file device the wrapper still forwards real
// bytes and barriers down, so the file carries real content and real
// fsyncs, and power-on rewinds it to the resolved durable image via the
// Restorer hook.
func layout(spec Spec, i, r int, plan faultdev.Plan, dir string) stack.Layout {
	tunables := DurabilityTunables(spec.Engine)
	maps.Copy(tunables, spec.Tunables)
	l := stack.Small(spec.Engine, tunables)
	l.Fault = &plan
	l.Content = true
	l.RNG = sim.NewRNG(streamSeed(spec, 100, i, r))
	if dir != "" {
		l.File.Path = filepath.Join(dir, stack.ImageName(i, r, spec.Replicas))
	}
	return l
}

// buildEnv assembles spec.Shards × spec.Replicas stacks behind one
// store, stack (i, r) running plans[i][r]. autoFailover hands
// replica-kill authority to the serving layer; scenarios that kill the
// victim themselves keep it false so that Kill stays exclusive.
func buildEnv(spec Spec, plans [][]faultdev.Plan, dir string, autoFailover bool) (*stack.Cluster, error) {
	return stack.BuildCluster(spec.Shards, spec.Replicas, spec.ReplMode, autoFailover, func(i, r int) stack.Layout {
		return layout(spec, i, r, plans[i][r], dir)
	})
}

// noFaults is the all-empty plan matrix: every stack still gets its
// wrapper, so timing and write sequence match a faulty pass exactly.
func noFaults(spec Spec) [][]faultdev.Plan {
	plans := make([][]faultdev.Plan, spec.Shards)
	for i := range plans {
		plans[i] = make([]faultdev.Plan, spec.Replicas)
	}
	return plans
}

// trialDir resolves where one trial keeps its images: nowhere on the
// sim device, trial-SEED under a pinned Dir (the layout survives for
// post-mortem inspection), otherwise a temp directory cleanup removes.
func trialDir(spec Spec, seed uint64) (dir string, cleanup func(), err error) {
	if spec.Device != "file" {
		return "", func() {}, nil
	}
	if spec.Dir != "" {
		dir = filepath.Join(spec.Dir, fmt.Sprintf("trial-%d", seed))
	}
	return stack.ImageDir(dir, "ptsbench-crash-")
}

// passDir is one pass's image directory under the trial's. Each pass
// gets its own: opening an image truncates it.
func passDir(trial, pass string) string {
	if trial == "" {
		return ""
	}
	return filepath.Join(trial, pass)
}

// recoverStack reopens stack (i, r)'s engine from its device image.
func recoverStack(spec Spec, st *stack.Stack, i, r int, now sim.Duration) (engine.Engine, sim.Duration, error) {
	return st.Recover(sim.NewRNG(streamSeed(spec, 900, i, r)), now)
}

// trial is the state of one faulty pass, handed from the serve loop to
// the scenario's aftermath. The victim is stack (rep.CutShard,
// rep.CutReplica).
type trial struct {
	spec     Spec
	sc       *Scenario
	dir      string // the trial's image directory ("" on the sim device)
	env      *stack.Cluster
	model    *kvtest.Model
	rep      *Report
	lastDone sim.Duration // latest completion the serve loop saw
}

// runTrial executes one (spec, seed) trial of scenario sc — the one
// pipeline: a fault-free calibration pass counts every stack's write
// traffic, the harness samples the victim and the write its fault lands
// on, and the faulty pass replays the identical op log under the
// scenario's plan, follows it with the scenario's aftermath and checks
// the store that results against the model.
func runTrial(spec Spec, seed uint64, sc *Scenario) (*Report, error) {
	ops := genOps(spec, seed)
	dir, cleanup, err := trialDir(spec, seed)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Pass 1 (calibration): same wrappers, no faults — identical timing
	// and write sequence, so pass 2's Nth write on any device is pass
	// 1's Nth write and the sampled write is meaningful.
	writes, err := calibrate(spec, ops, passDir(dir, "calib"))
	if err != nil {
		return nil, fmt.Errorf("calibration (fault-free) pass failed: %w", err)
	}
	shard, r, write := sampleReplicaCut(spec, seed, writes)
	if write == 0 {
		return nil, fmt.Errorf("op log produced no device writes for the fault to land on")
	}

	rep := &Report{Spec: spec, Seed: seed, CutShard: shard, CutReplica: r, CutWrite: write}
	plans := noFaults(spec)
	plans[shard][r] = sc.plan(spec, write)
	plans[shard][r].Seed = seed*0x2545F4914F6CDD1D + 1
	env, err := buildEnv(spec, plans, passDir(dir, "fault"), sc.autoFailover)
	if err != nil {
		return rep, err
	}
	defer env.Close()

	t := &trial{spec: spec, sc: sc, dir: dir, env: env, model: kvtest.NewModel(), rep: rep}
	if err = t.serve(ops); err == nil {
		if sc.machine {
			err = t.machineRestart()
		} else {
			err = t.replicaRejoin()
		}
	}
	if err != nil {
		return rep, fmt.Errorf("%s at shard %d replica %d write %d: %w", sc.Name, shard, r, write, err)
	}
	return rep, nil
}

// serve is pass 2: replay the op log against the faulty environment.
// The cut fires mid-batch and is noticed between pumps. A machine that
// died stops there; otherwise the harness fails the victim out of its
// group and keeps going — the machine never stops serving. A
// whole-log scenario has no cut to wait for: its errors fire
// probabilistically from the arm point on while the serving layer
// retries and fails the victim over by itself.
func (t *trial) serve(ops []opRec) error {
	victim := t.env.Stacks[t.rep.CutShard][t.rep.CutReplica].Fault
	fired := false
	for start := 0; start < len(ops); start += batchSize {
		end := min(start+batchSize, len(ops))
		comps := submitBatch(t.env.Store, ops, start, end)
		cutBatch := !fired && victim.Cut()
		for _, c := range comps {
			t.lastDone = max(t.lastDone, c.Done)
		}
		if err := applyBatch(t.sc, t.model, ops, comps, cutBatch, t.rep.CutShard, t.spec.Shards); err != nil {
			return err
		}
		if cutBatch {
			fired = true
			t.rep.CutOp = end
			if t.sc.machine {
				break
			}
			if err := t.failOut(); err != nil {
				return err
			}
		}
	}
	switch {
	case t.sc.wholeLog:
		t.rep.CutOp = len(ops)
	case !fired:
		return fmt.Errorf("the cut never fired (calibration divergence)")
	}
	t.rep.Injected = victim.Injected().Total()
	return nil
}

// failOut is failover: the victim leaves its group — unless the serving
// layer already failed it out — and the sticky shard error its death
// may have caused is cleared with it.
func (t *trial) failOut() error {
	group := t.env.Groups[t.rep.CutShard]
	if group.Alive(t.rep.CutReplica) {
		if err := group.Kill(t.rep.CutReplica); err != nil {
			return err
		}
	}
	return t.env.Store.ClearFailure(t.rep.CutShard)
}

// machineRestart is the aftermath of a fault that took the machine:
// power failure cuts every shard and resolves what survived, every
// shard recovers from its image, and a fresh store serving the
// recovered engines must satisfy the model. File device only: after
// power-on the backing file must BE the resolved durable image —
// dropped and torn pages rewound, everything else byte-identical. This
// is what makes the file trials stronger than the simulated ones: the
// bytes recovery reads really are the bytes a crashed kernel would have
// left.
func (t *trial) machineRestart() error {
	for i, row := range t.env.Stacks {
		if err := row[0].PowerCycle(); err != nil {
			return fmt.Errorf("shard %d power-on: %w", i, err)
		}
		if err := verifyFileImage(row[0]); err != nil {
			return fmt.Errorf("shard %d after power-on: %w", i, err)
		}
	}
	recovered := make([]store.Stack, len(t.env.Stacks))
	var now sim.Duration
	for i, row := range t.env.Stacks {
		eng, start, err := recoverStack(t.spec, row[0], i, 0, t.lastDone)
		if err != nil {
			return fmt.Errorf("shard %d recovery failed: %w", i, err)
		}
		recovered[i] = store.Stack{Engine: eng, Dev: row[0].Host, Start: start}
		now = max(now, start)
	}
	rst, err := store.New(len(recovered), func(i int) (store.Stack, error) { return recovered[i], nil })
	if err != nil {
		return err
	}
	return verify(t.rep, rst, t.model, t.spec, now)
}

// replicaRejoin is the aftermath of a fault the machine survived: the
// victim is out of its group, the degraded group must still hold every
// acknowledged write, and the victim comes back from its own image —
// or, where the scenario allows a loud refusal, from its peers.
func (t *trial) replicaRejoin() error {
	shard, r := t.rep.CutShard, t.rep.CutReplica
	group, victim := t.env.Groups[shard], t.env.Stacks[shard][r]
	// The victim's device is known-damaged: the degraded check below
	// must not let its copy answer for the group.
	if err := t.failOut(); err != nil {
		return err
	}

	// Degraded serving: down one replica, the group must still hold
	// every key to its allowed states — zero acknowledged-write loss at
	// the moment of failover. Each batch is submitted after the one
	// before it finished, like any client of a serving store.
	now, ids := t.lastDone, t.model.IDs()
	var err error
	for start := 0; start < len(ids); start += batchSize {
		if now, err = readBatch(t.env.Store, t.model, ids, start, now); err != nil {
			return fmt.Errorf("degraded group: %w", err)
		}
	}

	// Power-cycle the victim: unbarriered writes resolve (drops, tears;
	// for fsynclie the lied-about windows), the error model disarms, and
	// the file backend is proven byte-identical to the resolved image.
	if err := victim.PowerCycle(); err != nil {
		return fmt.Errorf("victim power-on: %w", err)
	}
	if err := verifyFileImage(victim); err != nil {
		return fmt.Errorf("victim after power-on: %w", err)
	}

	// Recovery runs through the registry exactly like a machine restart.
	// A loud refusal the scenario allows downgrades the rejoin to a
	// rebuild-from-peers: a fresh empty stack that Reconcile repopulates
	// from the authority.
	eng, rnow, err := recoverStack(t.spec, victim, shard, r, now)
	if err != nil {
		if !t.sc.rebuildOnLoud {
			return fmt.Errorf("victim recovery failed: %w", err)
		}
		t.rep.RecoveredLoud = true
		fresh, berr := stack.Build(layout(t.spec, shard, r, faultdev.Plan{}, passDir(t.dir, "rebuild")))
		if berr != nil {
			return fmt.Errorf("rebuilding the victim after loud recovery refusal (%v): %w", err, berr)
		}
		victim.Close()
		t.env.Stacks[shard][r] = fresh
		eng, rnow = fresh.Engine, now
	}
	if err := group.Revive(r, replica.Member{Engine: eng, Start: rnow}); err != nil {
		return err
	}
	recNow, err := group.Reconcile(max(now, rnow))
	if err != nil {
		return fmt.Errorf("reconciling the victim: %w", err)
	}

	// Reconvergence — every replica of every group entry-identical —
	// then the full model verification through the serving layer. In
	// chain mode the revived replica serves these reads itself whenever
	// it is the tail, so recovery is load-bearing, not decorative.
	if err := verifyConverged(t.env.Groups, recNow); err != nil {
		return fmt.Errorf("after reconciling the victim: %w", err)
	}
	return verify(t.rep, t.env.Store, t.model, t.spec, recNow)
}

// calibrate runs the op log fault-free and returns per-shard,
// per-replica device write counts.
func calibrate(spec Spec, ops []opRec, dir string) ([][]int64, error) {
	env, err := buildEnv(spec, noFaults(spec), dir, false)
	if err != nil {
		return nil, err
	}
	defer env.Close()
	for start := 0; start < len(ops); start += batchSize {
		for _, c := range submitBatch(env.Store, ops, start, min(start+batchSize, len(ops))) {
			if c.Err != nil {
				return nil, fmt.Errorf("op %d: %w", c.Seq, c.Err)
			}
		}
	}
	writes := make([][]int64, spec.Shards)
	for i, row := range env.Stacks {
		writes[i] = make([]int64, spec.Replicas)
		for r, st := range row {
			writes[i][r] = st.Fault.Writes()
		}
	}
	return writes, nil
}

// sampleReplicaCut picks the (shard, replica, write index) the fault
// lands on: one uniform draw over every write calibration observed, so
// stacks are weighted by their traffic. A pinned spec confines the draw
// to its shard and fixes the write index; the replica is still sampled
// by write traffic — every replica of the cut shard must be reachable
// by some seed. A zero write means there was no traffic to sample.
func sampleReplicaCut(spec Spec, seed uint64, writes [][]int64) (int, int, int64) {
	first, pinned := 0, spec.CutShard >= 0
	if pinned {
		first, writes = spec.CutShard, writes[spec.CutShard:spec.CutShard+1]
	}
	var total int64
	for _, row := range writes {
		for _, w := range row {
			total += w
		}
	}
	if total == 0 {
		return 0, 0, 0
	}
	pick := 1 + int64(sim.NewRNG(seed).Uint64n(uint64(total)))
	for i, row := range writes {
		for r, w := range row {
			if pick <= w {
				if pinned {
					pick = min(spec.CutWrite, w)
				}
				return first + i, r, pick
			}
			pick -= w
		}
	}
	panic("crash: sampled write beyond the calibrated total")
}

// submitBatch submits ops[start:end) with strictly increasing submit
// times and pumps them to completion.
func submitBatch(st *store.Store, ops []opRec, start, end int) []store.Completion {
	for i := start; i < end; i++ {
		op := store.Op{
			Client: 0,
			Submit: sim.Duration(i+1) * 1000, // 1µs apart
			KeyID:  ops[i].id,
			Key:    kv.EncodeKey(ops[i].id),
		}
		switch ops[i].kind {
		case store.Put:
			op.Kind = store.Put
			op.Value = ops[i].val
		case store.Delete:
			op.Kind = store.Delete
		default:
			op.Kind = store.Get
		}
		st.Submit(op)
	}
	return st.Pump()
}

// applyBatch folds one batch's completions into the model — the one
// completion classifier. Completions arrive in submission order, so the
// model sees each key's ops exactly as its shard processed them.
//
// The fault window is the batch the cut fired in, or every batch of a
// whole-log scenario; only ops on the victim's shard are ever in it.
// In the window an op may error, and an errored write is ambiguous: the
// chain or quorum apply may have stopped part-way. An acknowledged
// write is exact if the machine survived — every live replica applied
// it and keeps it — and ambiguous if it did not: acknowledged in
// memory, durable only up to an unknown prefix. Reads in the window are
// skipped; the dying or damaged replica may have served them. Outside
// the window every op must succeed, writes are exact, and reads are
// held to each key's allowed states (keys from the window stay
// ambiguous until a later write pins them).
func applyBatch(sc *Scenario, model *kvtest.Model, ops []opRec, comps []store.Completion, cutBatch bool, victimShard, shards int) error {
	for _, c := range comps {
		idx := int(c.Seq)
		op := ops[idx]
		inWindow := (cutBatch || sc.wholeLog) && store.ShardOf(op.id, shards) == victimShard
		if c.Err != nil && !inWindow {
			return fmt.Errorf("op %d (%v key %d) failed outside the fault window: %w", idx, op.kind, op.id, c.Err)
		}
		ambiguous := inWindow && (sc.machine || c.Err != nil)
		switch op.kind {
		case store.Put:
			if ambiguous {
				model.AllowPut(op.id, op.val)
			} else {
				model.Put(op.id, op.val)
			}
		case store.Delete:
			if ambiguous {
				model.AllowDelete(op.id)
			} else {
				model.Delete(op.id)
			}
		default: // Get
			if inWindow {
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
