package crash

// Replicated trials: instead of cutting power on the whole machine, the
// fault plan cuts ONE replica's device inside a replica group
// (internal/replica) while the machine keeps running. The harness then
// proves the replication layer masks the failure end to end:
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

import (
	"bytes"
	"fmt"

	"ptsbench/internal/faultdev"
	"ptsbench/internal/kv"
	"ptsbench/internal/kvtest"
	"ptsbench/internal/replica"
	"ptsbench/internal/sim"
	"ptsbench/internal/store"
)

// sampleReplicaCut picks the (shard, replica, write index) the kill
// lands on. A pinned CutShard confines the draw to that shard; a pinned
// CutWrite pins the write index within the sampled replica. The replica
// itself is always sampled by write traffic — every replica of the cut
// shard must be reachable by some seed.
func sampleReplicaCut(spec Spec, seed uint64, writes [][]int64) (int, int, int64) {
	rng := sim.NewRNG(seed)
	if spec.CutShard >= 0 {
		rep := weightedReplica(rng, writes[spec.CutShard])
		most := max(writes[spec.CutShard][rep], 1)
		w := spec.CutWrite
		if w == 0 {
			w = 1 + int64(rng.Uint64n(uint64(most)))
		} else if w > most {
			w = most
		}
		if writes[spec.CutShard][rep] == 0 {
			return spec.CutShard, rep, 0
		}
		return spec.CutShard, rep, w
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
	pick := 1 + int64(rng.Uint64n(uint64(total)))
	for i, row := range writes {
		for r, w := range row {
			if pick <= w {
				return i, r, pick
			}
			pick -= w
		}
	}
	last := len(writes) - 1
	lastRep := len(writes[last]) - 1
	return last, lastRep, writes[last][lastRep]
}

// weightedReplica samples one replica index of a shard proportionally
// to its device write traffic.
func weightedReplica(rng *sim.RNG, row []int64) int {
	var total int64
	for _, w := range row {
		total += w
	}
	if total == 0 {
		return 0
	}
	pick := 1 + int64(rng.Uint64n(uint64(total)))
	for r, w := range row {
		if pick <= w {
			return r
		}
		pick -= w
	}
	return len(row) - 1
}

// runReplicaTrial executes one replicated (spec, seed) trial: calibrate,
// kill one replica's device at the sampled write, fail it over, serve
// degraded, recover it, reconcile, and verify everything.
func runReplicaTrial(spec Spec, seed uint64) (*Report, error) {
	ops := genOps(spec, seed)
	dir, cleanup, err := trialDir(spec, seed)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Pass 1 (calibration): identical stacks, no faults, so pass 2's Nth
	// write on any replica device is pass 1's Nth write.
	writes, err := calibrate(spec, ops, passDir(dir, "calib"))
	if err != nil {
		return nil, fmt.Errorf("calibration (fault-free) pass failed: %w", err)
	}
	cutShard, cutRep, cutWrite := sampleReplicaCut(spec, seed, writes)
	if cutWrite == 0 {
		return nil, fmt.Errorf("op log produced no device writes to cut at")
	}

	rep := &Report{Spec: spec, Seed: seed, CutShard: cutShard, CutReplica: cutRep, CutWrite: cutWrite}
	plans := noFaults(spec)
	plans[cutShard][cutRep] = faultdev.Plan{
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
	st, group, victim := env.Store, env.Groups[cutShard], env.Stacks[cutShard][cutRep]

	// Pass 2: replay the whole op log. The kill fires mid-batch; the
	// harness notices between pumps, fails the replica out of its group
	// and keeps going — the machine never stops serving.
	model := kvtest.NewModel()
	killed := false
	var lastDone sim.Duration
	for start := 0; start < len(ops); start += batchSize {
		end := min(start+batchSize, len(ops))
		comps := submitBatch(st, ops, start, end)
		window := !killed && victim.Fault.Cut()
		for _, c := range comps {
			lastDone = max(lastDone, c.Done)
		}
		if err := applyReplicaBatch(model, ops, comps, window, cutShard, spec.Shards); err != nil {
			return rep, err
		}
		if window {
			// Failover: the dead replica leaves the group, and the sticky
			// shard error its death may have caused is cleared with it.
			if err := group.Kill(cutRep); err != nil {
				return rep, err
			}
			if err := st.ClearFailure(cutShard); err != nil {
				return rep, err
			}
			rep.CutOp = end
			killed = true
		}
	}
	if !killed {
		return rep, fmt.Errorf("cut at shard %d replica %d write %d never fired (calibration divergence)",
			cutShard, cutRep, cutWrite)
	}

	// Degraded serving: down one replica, the group must still hold
	// every key to its allowed states — zero acknowledged-write loss at
	// the moment of failover.
	now, err := verifyDegraded(st, model, lastDone)
	if err != nil {
		return rep, fmt.Errorf("degraded group after killing shard %d replica %d at write %d: %w",
			cutShard, cutRep, cutWrite, err)
	}

	// Recover the killed replica from its own durable image: power-on
	// resolves the unbarriered window (drops/tears), the file backend is
	// proven byte-identical to that image, and recovery runs through the
	// registry exactly like a machine restart.
	if err := victim.PowerCycle(); err != nil {
		return rep, fmt.Errorf("shard %d replica %d power-on: %w", cutShard, cutRep, err)
	}
	if err := verifyFileImage(victim); err != nil {
		return rep, fmt.Errorf("shard %d replica %d after power-on (cut at write %d): %w",
			cutShard, cutRep, cutWrite, err)
	}
	reng, rnow, err := recoverStack(spec, victim, cutShard, cutRep, now)
	if err != nil {
		return rep, fmt.Errorf("shard %d replica %d recovery failed after cut at write %d: %w",
			cutShard, cutRep, cutWrite, err)
	}
	if err := group.Revive(cutRep, replica.Member{Engine: reng, Start: rnow}); err != nil {
		return rep, err
	}
	recNow, err := group.Reconcile(max(now, rnow))
	if err != nil {
		return rep, fmt.Errorf("reconciling shard %d replica %d: %w", cutShard, cutRep, err)
	}

	// Reconvergence: every replica of every group entry-identical.
	if err := verifyConverged(env.Groups, recNow); err != nil {
		return rep, fmt.Errorf("after reconciling shard %d replica %d: %w", cutShard, cutRep, err)
	}

	// Full model verification through the serving layer — point reads,
	// ordered merged scan, post-failover write/flush/read cycle. In
	// chain mode the revived replica serves these reads itself whenever
	// it is the tail, so recovery is load-bearing, not decorative.
	if err := verify(rep, st, model, spec, []sim.Duration{recNow}); err != nil {
		return rep, fmt.Errorf("cut at shard %d replica %d write %d: %w", cutShard, cutRep, cutWrite, err)
	}
	return rep, nil
}

// applyReplicaBatch folds one batch's completions into the model. In
// the batch the kill landed on (window), the cut shard's operations
// split three ways: acknowledged without error means every live
// replica applied them — exact; errored means the chain or quorum
// apply aborted part-way — ambiguous; reads may have been served by the
// dying replica — skipped. Outside the window everything must succeed,
// and reads are checked against each key's allowed states (keys from
// the window stay ambiguous until a later write pins them).
func applyReplicaBatch(model *kvtest.Model, ops []opRec, comps []store.Completion, window bool, cutShard, shards int) error {
	for _, c := range comps {
		idx := int(c.Seq)
		op := ops[idx]
		inWindow := window && store.ShardOf(op.id, shards) == cutShard
		if c.Err != nil && !inWindow {
			return fmt.Errorf("op %d (%v key %d) failed while the group was live: %w", idx, op.kind, op.id, c.Err)
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

// verifyDegraded point-reads every tracked key through the store while
// the group is down one replica. Returns the virtual time the last read
// finished.
func verifyDegraded(st *store.Store, model *kvtest.Model, now sim.Duration) (sim.Duration, error) {
	ids := model.IDs()
	for start := 0; start < len(ids); start += batchSize {
		end := start + batchSize
		if end > len(ids) {
			end = len(ids)
		}
		for j := start; j < end; j++ {
			st.Submit(store.Op{
				Kind:   store.Get,
				Submit: now + sim.Duration(j+1)*1000,
				KeyID:  ids[j],
				Key:    kv.EncodeKey(ids[j]),
			})
		}
		comps := st.Pump()
		if len(comps) != end-start {
			return now, fmt.Errorf("degraded store returned %d completions for %d gets", len(comps), end-start)
		}
		for j, c := range comps {
			id := ids[start+j]
			if c.Err != nil {
				return now, fmt.Errorf("degraded get key %d: %w", id, c.Err)
			}
			if !model.Check(id, c.Value, c.Found) {
				return now, fmt.Errorf("acknowledged write lost: key %d outside its allowed states (found=%v, ambiguous=%v)",
					id, c.Found, model.Ambiguous(id))
			}
			if c.Done > now {
				now = c.Done
			}
		}
	}
	return now, nil
}

// scanPage is verifyConverged's per-Scan window.
const scanPage = 128

// entryEqual compares two logical entries: key bytes, value bytes, and
// accounted length.
func entryEqual(a, b kv.Entry) bool {
	return bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value) && a.ValueLen == b.ValueLen
}

// scanReplica pages one replica's full key space directly off its
// engine (below the group, so stale or diverged state cannot hide
// behind the serving rotation).
func scanReplica(g *replica.Group, r int, now sim.Duration) ([]kv.Entry, error) {
	sc, ok := g.Engine(r).(store.Scanner)
	if !ok {
		return nil, fmt.Errorf("replica %d engine does not support Scan", r)
	}
	var out []kv.Entry
	start := make([]byte, kv.KeySize)
	for {
		_, ents, err := sc.Scan(now, start, scanPage)
		if err != nil {
			return nil, fmt.Errorf("scanning replica %d: %w", r, err)
		}
		for _, e := range ents {
			out = append(out, kv.Entry{
				Key:      append([]byte(nil), e.Key...),
				Value:    append([]byte(nil), e.Value...),
				ValueLen: e.ValueLen,
			})
		}
		if len(ents) < scanPage {
			return out, nil
		}
		id, err := kv.DecodeKey(ents[len(ents)-1].Key)
		if err != nil {
			return nil, fmt.Errorf("replica %d surfaced an undecodable key: %w", r, err)
		}
		start = kv.EncodeKey(id + 1)
	}
}

// verifyConverged proves every replica of every group holds the exact
// same logical entries — key, value bytes, and accounted length.
func verifyConverged(groups []*replica.Group, now sim.Duration) error {
	for i, g := range groups {
		ref, err := scanReplica(g, 0, now)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		for r := 1; r < g.Replicas(); r++ {
			got, err := scanReplica(g, r, now)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			if len(got) != len(ref) {
				return fmt.Errorf("shard %d: replica %d holds %d entries, replica 0 holds %d",
					i, r, len(got), len(ref))
			}
			for k := range ref {
				if !entryEqual(ref[k], got[k]) {
					return fmt.Errorf("shard %d: replica %d diverges from replica 0 at entry %d (key %x)",
						i, r, k, ref[k].Key)
				}
			}
		}
	}
	return nil
}
