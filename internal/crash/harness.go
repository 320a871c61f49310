package crash

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"path/filepath"
	"strings"

	"ptsbench/internal/engine"
	"ptsbench/internal/faultdev"
	"ptsbench/internal/kv"
	"ptsbench/internal/kvtest"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
	"ptsbench/internal/store"
)

// Fault severity of the sampled cut: unbarriered writes drop or tear
// with these probabilities at power-on. The harness never injects
// bit-rot — corrupting *durable* state is beyond the crash-consistency
// contract it verifies (scripted tests use Plan.RotPages directly).
const (
	dropProb = 0.25
	tornProb = 0.5
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
	CutReplica int // replica the cut killed (replicated trials only)
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
	if spec.Replicas > 1 {
		line += fmt.Sprintf(" -replicas %d -repl-mode %s", spec.Replicas, spec.ReplMode)
	}
	if len(spec.ErrorKinds) > 0 {
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
	var rep *Report
	for t := 0; t < spec.Trials; t++ {
		seed := spec.Seed + uint64(t)
		switch {
		case len(spec.ErrorKinds) > 0:
			rep, err = runErrorTrial(spec, seed)
		case spec.Replicas > 1:
			rep, err = runReplicaTrial(spec, seed)
		default:
			rep, err = runTrial(spec, seed)
		}
		if err != nil {
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
// replica-kill authority to the serving layer (error-plan trials); cut
// trials keep it false so their manual Kill stays exclusive.
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

// runTrial executes one (spec, seed) trial: a fault-free calibration
// pass counts per-shard write traffic, the harness samples a cut point
// from it, and the faulty pass replays the identical op log, dies at
// the cut, recovers every shard and verifies the result.
func runTrial(spec Spec, seed uint64) (*Report, error) {
	ops := genOps(spec, seed)
	dir, cleanup, err := trialDir(spec, seed)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Pass 1 (calibration): same wrapper, no faults — identical timing
	// and write sequence, so pass 2's Nth write is pass 1's Nth write.
	perStack, err := calibrate(spec, ops, passDir(dir, "calib"))
	if err != nil {
		return nil, fmt.Errorf("calibration (fault-free) pass failed: %w", err)
	}
	writes := make([]int64, spec.Shards)
	for i, row := range perStack {
		writes[i] = row[0]
	}
	cutShard, cutWrite := sampleCut(spec, seed, writes)
	if cutWrite == 0 {
		return nil, fmt.Errorf("op log produced no device writes to cut at")
	}

	rep := &Report{Spec: spec, Seed: seed, CutShard: cutShard, CutWrite: cutWrite}
	plans := noFaults(spec)
	plans[cutShard][0] = faultdev.Plan{
		Seed:           seed*0x2545F4914F6CDD1D + 1,
		CutAfterWrites: cutWrite,
		CutKeepPages:   0, // random tear of the in-flight write
		DropProb:       dropProb,
		TornProb:       tornProb,
	}
	env, err := buildEnv(spec, plans, passDir(dir, "fault"), false)
	if err != nil {
		return rep, err
	}
	defer env.Close()
	st := env.Store

	// Pass 2: replay until the cut fires.
	model := kvtest.NewModel()
	cut := false
	var lastDone sim.Duration
	for start := 0; start < len(ops) && !cut; start += batchSize {
		end := min(start+batchSize, len(ops))
		comps := submitBatch(st, ops, start, end)
		cut = env.Stacks[cutShard][0].Fault.Cut()
		for _, c := range comps {
			lastDone = max(lastDone, c.Done)
		}
		if err := applyBatch(model, ops, comps, cut, cutShard, spec.Shards); err != nil {
			return rep, err
		}
		rep.CutOp = end
	}
	if !cut {
		return rep, fmt.Errorf("cut at shard %d write %d never fired (calibration divergence)", cutShard, cutWrite)
	}

	// Power failure takes the whole machine: cut every shard and resolve
	// what survived. File device only: the backing file must then BE the
	// resolved durable image — dropped and torn pages rewound, everything
	// else byte-identical. This is what makes the file trials stronger
	// than the simulated ones: the bytes recovery reads really are the
	// bytes a crashed kernel would have left.
	for i, row := range env.Stacks {
		if err := row[0].PowerCycle(); err != nil {
			return rep, fmt.Errorf("shard %d power-on: %w", i, err)
		}
		if err := verifyFileImage(row[0]); err != nil {
			return rep, fmt.Errorf("shard %d after power-on (cut at shard %d write %d): %w",
				i, cutShard, cutWrite, err)
		}
	}
	recovered := make([]engine.Engine, spec.Shards)
	starts := make([]sim.Duration, spec.Shards)
	for i, row := range env.Stacks {
		recovered[i], starts[i], err = recoverStack(spec, row[0], i, 0, lastDone)
		if err != nil {
			return rep, fmt.Errorf("shard %d recovery failed after cut (shard %d, write %d): %w",
				i, cutShard, cutWrite, err)
		}
	}
	rst, err := store.New(spec.Shards, func(i int) (store.Stack, error) {
		return store.Stack{Engine: recovered[i], Dev: env.Stacks[i][0].Host, Start: starts[i]}, nil
	})
	if err != nil {
		return rep, err
	}
	defer rst.Close()

	if err := verify(rep, rst, model, spec, starts); err != nil {
		return rep, fmt.Errorf("cut at shard %d write %d: %w", cutShard, cutWrite, err)
	}
	return rep, nil
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

// verifyFileImage compares a stack's backing file, page by page,
// against the fault wrapper's resolved durable image (zeros where
// nothing durable was ever written); the sim device has no file and
// passes. Reads go straight to the filedev — below the fault wrapper,
// whose own content store must not be allowed to mask a divergence in
// the file.
func verifyFileImage(st *stack.Stack) error {
	if st.File == nil {
		return nil
	}
	ps := st.File.PageSize()
	zero := make([]byte, ps)
	buf := make([]byte, ps)
	for lba := int64(0); lba < st.File.Pages(); lba++ {
		st.File.ReadAt(0, lba, 1, buf)
		want := st.Fault.DurablePage(lba)
		if want == nil {
			want = zero
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("backing file diverges from the durable image at LBA %d", lba)
		}
	}
	return nil
}

// sampleCut picks the cut's (shard, write index): spec pins win;
// otherwise one uniform draw over all observed writes, so shards are
// weighted by their traffic.
func sampleCut(spec Spec, seed uint64, writes []int64) (int, int64) {
	if spec.CutShard >= 0 && spec.CutWrite > 0 {
		return spec.CutShard, min(spec.CutWrite, writes[spec.CutShard])
	}
	var total int64
	for _, w := range writes {
		total += w
	}
	if total == 0 {
		return 0, 0
	}
	rng := sim.NewRNG(seed)
	pick := 1 + int64(rng.Uint64n(uint64(total)))
	for i, w := range writes {
		if pick <= w {
			if spec.CutShard >= 0 && i != spec.CutShard {
				// Shard pinned but write sampled: re-scale into it.
				w := 1 + int64(rng.Uint64n(uint64(max(writes[spec.CutShard], 1))))
				return spec.CutShard, w
			}
			return i, pick
		}
		pick -= w
	}
	return len(writes) - 1, writes[len(writes)-1]
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

// applyBatch folds one batch's completions into the model. Completions
// arrive in submission order, so the model sees each key's ops exactly
// as its shard processed them. In the batch the cut landed on, the cut
// shard's ops are ambiguous — acknowledged in memory, durable only up
// to an unknown prefix — while other shards completed the batch intact
// (their fault plans are empty, so pending writes survive power-on).
func applyBatch(model *kvtest.Model, ops []opRec, comps []store.Completion, cut bool, cutShard, shards int) error {
	for _, c := range comps {
		idx := int(c.Seq)
		op := ops[idx]
		ambiguous := cut && store.ShardOf(op.id, shards) == cutShard
		if c.Err != nil && !ambiguous {
			return fmt.Errorf("op %d (%v key %d) failed pre-cut: %w", idx, op.kind, op.id, c.Err)
		}
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
		default: // Get: verify against the model's exact state
			if ambiguous {
				continue
			}
			want, present := model.Value(op.id)
			if c.Found != present {
				return fmt.Errorf("op %d: get key %d found=%v, model present=%v (pre-cut divergence)",
					idx, op.id, c.Found, present)
			}
			if present && !bytes.Equal(c.Value, want) {
				return fmt.Errorf("op %d: get key %d returned wrong value (pre-cut divergence)", idx, op.id)
			}
		}
	}
	return nil
}

// verify checks the recovered store against the model: point reads for
// every tracked key, one full merged scan (ordered, members allowed,
// certain keys present), and a post-recovery write/flush/read cycle.
func verify(rep *Report, rst *store.Store, model *kvtest.Model, spec Spec, starts []sim.Duration) error {
	now := starts[0]
	for _, s := range starts {
		if s > now {
			now = s
		}
	}
	ids := model.IDs()
	for _, id := range ids {
		if model.Ambiguous(id) {
			rep.Ambiguous++
		}
	}

	// Point reads through the recovered serving layer. Completions come
	// back in submission order, so position j of a batch is ids[start+j].
	for start := 0; start < len(ids); start += batchSize {
		end := start + batchSize
		if end > len(ids) {
			end = len(ids)
		}
		for j := start; j < end; j++ {
			rst.Submit(store.Op{
				Kind:   store.Get,
				Submit: now + sim.Duration(j+1)*1000,
				KeyID:  ids[j],
				Key:    kv.EncodeKey(ids[j]),
			})
		}
		comps := rst.Pump()
		if len(comps) != end-start {
			return fmt.Errorf("recovered store returned %d completions for %d gets", len(comps), end-start)
		}
		for j, c := range comps {
			id := ids[start+j]
			if c.Err != nil {
				return fmt.Errorf("recovered get key %d: %w", id, c.Err)
			}
			if !model.Check(id, c.Value, c.Found) {
				return fmt.Errorf("recovered key %d outside its allowed states (found=%v, ambiguous=%v)",
					id, c.Found, model.Ambiguous(id))
			}
			rep.Checked++
		}
	}

	// One full merged scan: strictly ordered, every entry an allowed
	// member with an allowed value, every certainly-present key
	// surfaced.
	scanNow := now + sim.Duration(len(ids)+2)*1000
	_, entries, err := rst.Scan(scanNow, kv.EncodeKey(0), spec.Keys+16)
	if err != nil {
		return fmt.Errorf("recovered scan: %w", err)
	}
	seen := make(map[uint64]bool, len(entries))
	var prev []byte
	for i, e := range entries {
		if i > 0 && kv.CompareKeys(prev, e.Key) >= 0 {
			return fmt.Errorf("recovered scan out of order at entry %d", i)
		}
		prev = append(prev[:0], e.Key...)
		id, err := kv.DecodeKey(e.Key)
		if err != nil {
			return fmt.Errorf("recovered scan entry %d: %w", i, err)
		}
		if !model.MayContain(id) {
			return fmt.Errorf("recovered scan surfaced key %d, which must be absent", id)
		}
		if !model.CheckValue(id, e.Value) {
			return fmt.Errorf("recovered scan key %d has a value outside its allowed set", id)
		}
		seen[id] = true
	}
	for _, id := range ids {
		if model.MustContain(id) && !seen[id] {
			return fmt.Errorf("recovered scan missing key %d, which must be present", id)
		}
	}
	rep.Scanned = len(entries)

	// The recovered store accepts, persists and re-serves new writes.
	postNow := scanNow + sim.Duration(spec.Keys)*1000
	const postKeys = 8
	postVal := func(j int) []byte {
		v := make([]byte, 16)
		binary.LittleEndian.PutUint64(v[0:], uint64(spec.Keys+j))
		binary.LittleEndian.PutUint64(v[8:], rep.Seed)
		return v
	}
	for j := 0; j < postKeys; j++ {
		rst.Submit(store.Op{
			Kind:   store.Put,
			Submit: postNow + sim.Duration(j+1)*1000,
			KeyID:  uint64(spec.Keys + j),
			Key:    kv.EncodeKey(uint64(spec.Keys + j)),
			Value:  postVal(j),
		})
	}
	for _, c := range rst.Pump() {
		if c.Err != nil {
			return fmt.Errorf("post-recovery put: %w", c.Err)
		}
		if c.Done > postNow {
			postNow = c.Done
		}
	}
	flushed, err := rst.FlushAll(postNow)
	if err != nil {
		return fmt.Errorf("post-recovery flush: %w", err)
	}
	for j := 0; j < postKeys; j++ {
		rst.Submit(store.Op{
			Kind:   store.Get,
			Submit: flushed + sim.Duration(j+1)*1000,
			KeyID:  uint64(spec.Keys + j),
			Key:    kv.EncodeKey(uint64(spec.Keys + j)),
		})
	}
	comps := rst.Pump()
	for j, c := range comps {
		if c.Err != nil || !c.Found || !bytes.Equal(c.Value, postVal(j)) {
			return fmt.Errorf("post-recovery write %d lost or wrong (found=%v, err=%v)", j, c.Found, c.Err)
		}
	}
	return nil
}
