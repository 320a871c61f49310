// Package store is the serving layer between an experiment's
// closed-loop clients and the storage engines: an asynchronous
// submit/complete pipeline over N hash-partitioned shards, each shard
// owning one engine instance on its own simulated device stack.
//
// The dispatch discipline mirrors sim.MultiResource — a shared
// submission queue feeding independent FIFO service lanes — lifted from
// flash dies to whole engine instances: clients Submit operations with
// virtual submission times, each is routed to its owning shard, and
// every shard services its intake in (submit time, submission order)
// order on its own clock. Shards never share mutable simulation state
// (each has its own flash device, block device, filesystem and engine),
// so neither the order shards are serviced in nor the goroutine that
// services one can change a result. Pump services them one after
// another on the caller's goroutine: a pump carries at most 16
// operations on every multi-shard shape in this repository, and handing
// a shard's ~30 µs of engine work to another thread costs more than the
// work (BenchmarkPump measures the crossover). The lifecycle calls —
// Load, FlushAll, Quiesce, Scan — are milliseconds to seconds of work
// per shard and run the shards concurrently (each).
//
// Determinism contract: a 1-shard store is bit-identical to driving the
// engine directly, and any (shards × clients) shape replays exactly
// given the same submission sequence. Consecutive same-client Get
// submissions with equal submit times form a read wave: all start
// together on the owning shard and the shard clock advances to the
// slowest completion, reproducing the harness's QueueDepth batching.
// Intake batches carrying more than one write are bracketed with the
// engine's optional group commit (engine.GroupCommitter), so concurrent
// clients share one journal sync, and a read wave of two or more Gets
// is first handed whole to the engine's optional engine.WaveReader.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/deverr"
	"ptsbench/internal/engine"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// OpKind enumerates the operations the serving layer accepts.
type OpKind uint8

// Operation kinds.
const (
	Get OpKind = iota
	Put
	Delete
)

// Op is one submitted operation. KeyID routes the op to its shard
// (ShardOf); Key is the encoded key handed to the engine and must stay
// valid until the Pump that services it returns. Wave marks a member of
// a concurrent read wave (see the package comment).
type Op struct {
	Kind     OpKind
	Client   int
	Submit   sim.Duration
	KeyID    uint64
	Key      []byte
	Value    []byte
	ValueLen int
	Wave     bool
}

// Completion reports one serviced operation. Seq is the global
// submission order; Done is the virtual completion time (for group-
// committed writes, the group's journal sync time). After an error on a
// shard, later operations of the same Pump on that shard complete with
// the same error without reaching the engine.
type Completion struct {
	Seq    uint64
	Client int
	Kind   OpKind
	Wave   bool
	Submit sim.Duration
	Done   sim.Duration
	Value  []byte
	Found  bool
	Err    error
}

// Deleter and Scanner name two methods of kv.Engine; no root code uses
// them. They exist only because benchmark/ does and no change may touch
// benchmark/ beside other code; they go once step (b) of ROADMAP's
// benchmark-boundary chain stops benchmark/ asserting on them.
type (
	Deleter interface {
		Delete(now sim.Duration, key []byte) (sim.Duration, error)
	}
	Scanner interface {
		Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error)
	}
)

// Stack is one shard's engine on its own simulated device. Start seeds
// the shard clock (recovery end time for recovered engines).
//
// A replicated shard (a replica.Group behind Engine) owns one device
// per replica: Devs then carries ALL of them in replica order (Dev
// stays the first replica's for compatibility), so device
// instrumentation sees every underlying device.
type Stack struct {
	Engine engine.Engine
	Dev    blockdev.Host
	Start  sim.Duration
	// Devs, when set, lists every device backing the shard (replica
	// groups). When nil the shard has the single device Dev.
	Devs []blockdev.Host
	// AutoFailover lets the shard fail a persistently erroring replica
	// out of its group (the engine must implement Failover) instead of
	// latching the shard unavailable. Off by default: harnesses that
	// orchestrate failover themselves keep exclusive control.
	AutoFailover bool
}

// request is an Op tagged with its global submission number.
type request struct {
	seq uint64
	op  Op
}

type shard struct {
	idx    int
	eng    engine.Engine
	devs   []blockdev.Host // every backing device (one per replica)
	clock  sim.Duration
	failed error // sticky: set on the first persistent engine error

	autoFailover bool       // fail erroring replicas out of the group
	retryLeft    int        // transient-retry budget for this pump round
	errStats     ErrorStats // degraded-path counters

	intake   []request // reused across Pumps
	unsorted bool      // intake submit times observed out of order
	comps    []Completion
	waveKeys [][]byte // a read wave's keys for planner, reused

	// planner is the engine as an engine.WaveReader, nil when it is not
	// one, asserted once here rather than per wave.
	planner engine.WaveReader

	err error // scratch for lifecycle operations (Load, FlushAll, Scan)
}

// Store is the sharded serving layer.
type Store struct {
	shards  []*shard
	seq     uint64
	pending int          // submissions since the last Pump
	comps   []Completion // reused result buffer for Pump
}

// New builds a store over shards hash-partitioned engine stacks. open
// is called with shard indices 0..shards-1 in order; shard 0's stack is
// built first, so callers can give it the experiment's primary RNG
// stream and keep single-shard runs bit-identical to historical ones.
// A store owns no goroutine and nothing that needs releasing.
func New(shards int, open func(i int) (Stack, error)) (*Store, error) {
	if shards < 1 {
		return nil, fmt.Errorf("store: shards must be >= 1 (got %d)", shards)
	}
	s := &Store{shards: make([]*shard, 0, shards)}
	for i := 0; i < shards; i++ {
		st, err := open(i)
		if err != nil {
			return nil, fmt.Errorf("store: opening shard %d: %w", i, err)
		}
		sh := &shard{
			idx: i, eng: st.Engine, devs: st.Devs, clock: st.Start,
			autoFailover: st.AutoFailover,
			waveKeys:     make([][]byte, 0, engine.PlanWave),
		}
		sh.planner, _ = st.Engine.(engine.WaveReader)
		if sh.devs == nil {
			sh.devs = []blockdev.Host{st.Dev}
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// Close does nothing: a store owns no goroutine and holds no external
// resource (engines stay open, so tests can inspect or recover them).
// The method exists only because benchmark/ calls it and no change may
// touch benchmark/ beside other code; deleting it is step (c) of
// ROADMAP's benchmark-boundary chain.
func (s *Store) Close() {}

// Shards returns the shard count.
func (s *Store) Shards() int { return len(s.shards) }

// Devs lists every block device backing the store, in shard order
// (replicated shards contribute one device per replica, in replica
// order), for instrumentation: reset, counter aggregation, combined
// LBA CDFs. Replication's R× physical write traffic is visible here
// while the store's logical throughput is not multiplied.
func (s *Store) Devs() []blockdev.Host {
	devs := make([]blockdev.Host, 0, len(s.shards))
	for _, sh := range s.shards {
		devs = append(devs, sh.devs...)
	}
	return devs
}

// ShardOf maps a key id to its owning shard through a SplitMix64
// finalizer — uniform spreading regardless of key-id locality, and
// stable across runs so the dataset's shard assignment is part of the
// experiment's deterministic state.
func ShardOf(id uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	z := (id ^ (id >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int(z % uint64(shards))
}

// Submit enqueues an operation for the next Pump and returns its global
// submission number. Submit itself costs no virtual time — admission is
// free, like a doorbell write; all queueing happens on the shard clock.
func (s *Store) Submit(op Op) uint64 {
	sh := s.shards[ShardOf(op.KeyID, len(s.shards))]
	if n := len(sh.intake); n > 0 && op.Submit < sh.intake[n-1].op.Submit {
		sh.unsorted = true
	}
	seq := s.seq
	s.seq++
	s.pending++
	sh.intake = append(sh.intake, request{seq: seq, op: op})
	return seq
}

// Pump services every submitted operation — on the calling goroutine,
// shard after shard — and returns the completions in global submission
// order. The submissions since the last Pump are numbered
// [seq-pending, seq) and every one of them completes exactly once in
// this call (TestPumpMatchesReference), so a completion's place in the
// result is its submission number less the first: nothing is merged or
// sorted. The returned slice is reused by the next Pump.
func (s *Store) Pump() []Completion {
	base := s.seq - uint64(s.pending)
	s.comps = slices.Grow(s.comps[:0], s.pending)[:s.pending]
	for _, sh := range s.shards {
		if len(sh.intake) == 0 {
			continue
		}
		sh.process()
		for i := range sh.comps {
			s.comps[sh.comps[i].Seq-base] = sh.comps[i]
		}
		sh.comps = sh.comps[:0]
		sh.intake = sh.intake[:0]
		sh.unsorted = false
	}
	s.pending = 0
	return s.comps
}

// ClearFailure clears shard i's sticky engine failure after the caller
// has repaired the shard's engine between pump rounds — the replica
// failover seam: when one replica of a shard's replica group dies
// mid-batch, the batch's errors stick to the shard, the crash harness
// fails the dead replica out of the group (replica.Group.Kill) and
// clears the shard so the surviving replicas keep serving. Must only be
// called between Pump/FlushAll/Scan rounds, never concurrently with
// them. An out-of-range shard index is an error, not a panic.
func (s *Store) ClearFailure(i int) error {
	if i < 0 || i >= len(s.shards) {
		return fmt.Errorf("store: clear failure: shard %d out of range (shards %d)", i, len(s.shards))
	}
	s.shards[i].failed = nil
	return nil
}

// each runs fn on every shard and returns after all have finished. On a
// multi-shard store the shards run concurrently, each on a goroutine
// that lives for this call: one lifecycle call is milliseconds to
// seconds of work per shard, which is worth a handoff, and fn touches
// only its own shard. TestLifecycleRunsShardsConcurrently holds it to
// that.
func (s *Store) each(fn func(*shard)) {
	if len(s.shards) == 1 {
		fn(s.shards[0])
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(s.shards))
	for _, sh := range s.shards {
		go func(sh *shard) {
			defer wg.Done()
			fn(sh)
		}(sh)
	}
	wg.Wait()
}

// process services the shard's intake batch in (submit, seq) order.
func (sh *shard) process() {
	if sh.unsorted {
		sortRequests(sh.intake)
	}
	sh.retryLeft = retryBudget
	var gc engine.GroupCommitter
	if countWrites(sh.intake) > 1 {
		if g, ok := sh.eng.(engine.GroupCommitter); ok {
			gc = g
			gc.BeginGroupCommit()
		}
	}
	for i := 0; i < len(sh.intake); {
		r := sh.intake[i]
		if sh.failed != nil {
			sh.errStats.Unavailable++
			sh.push(r, r.op.Submit, nil, false, sh.failed)
			i++
			continue
		}
		if r.op.Wave && r.op.Kind == Get {
			// Read wave: all members start together; the clock advances
			// to the slowest completion, like QueueDepth outstanding
			// host requests on one queue.
			j := i + 1
			for j < len(sh.intake) {
				n := sh.intake[j].op
				if !n.Wave || n.Kind != Get || n.Client != r.op.Client || n.Submit != r.op.Submit {
					break
				}
				j++
			}
			if j-i > 1 && sh.planner != nil && sh.failed == nil {
				sh.waveKeys = sh.waveKeys[:0]
				for k := i; k < j; k++ {
					sh.waveKeys = append(sh.waveKeys, sh.intake[k].op.Key)
				}
				sh.planner.PlanGets(sh.waveKeys)
			}
			start := max(sh.clock, r.op.Submit)
			end := start
			for k := i; k < j; k++ {
				rq := sh.intake[k]
				if sh.failed != nil {
					sh.errStats.Unavailable++
					sh.push(rq, rq.op.Submit, nil, false, sh.failed)
					continue
				}
				done, v, found, err := sh.runOp(rq, start)
				if err != nil {
					done, v, found, err = sh.redo(rq, done, err)
				}
				if err != nil {
					sh.push(rq, done, nil, false, sh.fail(err))
					continue
				}
				if done > end {
					end = done
				}
				sh.push(rq, done, v, found, nil)
			}
			sh.clock = end
			i = j
			continue
		}
		start := max(sh.clock, r.op.Submit)
		done, v, found, err := sh.runOp(r, start)
		if err != nil {
			done, v, found, err = sh.redo(r, done, err)
			if err != nil {
				err = sh.fail(err)
			}
		}
		sh.clock = done
		sh.push(r, done, v, found, err)
		i++
	}
	if gc != nil {
		syncDone, err := gc.EndGroupCommit(sh.clock)
		backoff := retryBase
		for err != nil {
			// The shared journal sync rides the same policy as ops:
			// transient errors back off and re-sync on the budget,
			// persistent member errors fail the replica over and re-sync
			// on the degraded group.
			if deverr.IsTransient(err) {
				sh.errStats.Transient++
				if sh.retryLeft <= 0 {
					break
				}
				sh.retryLeft--
				sh.errStats.Retries++
				sh.clock += backoff
				if backoff < retryCap {
					backoff *= 2
				}
			} else {
				sh.errStats.Persistent++
				if !sh.failOver(err) {
					break
				}
			}
			syncDone, err = gc.EndGroupCommit(sh.clock)
		}
		if err != nil {
			err = sh.fail(err)
			for k := range sh.comps {
				c := &sh.comps[k]
				if c.Kind != Get && c.Err == nil {
					c.Err = err
				}
			}
			return
		}
		// The group's writes become durable at the shared sync.
		for k := range sh.comps {
			c := &sh.comps[k]
			if c.Kind != Get && c.Err == nil && c.Done < syncDone {
				c.Done = syncDone
			}
		}
		if syncDone > sh.clock {
			sh.clock = syncDone
		}
	}
}

// runOp dispatches one request to the shard's engine at the given
// start time. It is the single raw attempt; retry and failover policy
// live in redo (degrade.go).
func (sh *shard) runOp(r request, at sim.Duration) (done sim.Duration, v []byte, found bool, err error) {
	switch r.op.Kind {
	case Get:
		done, v, found, err = sh.eng.Get(at, r.op.Key)
	case Put:
		done, err = sh.eng.Put(at, r.op.Key, r.op.Value, r.op.ValueLen)
	case Delete:
		done, err = sh.eng.Delete(at, r.op.Key)
	default:
		done, err = at, fmt.Errorf("store: unknown op kind %d", r.op.Kind)
	}
	return done, v, found, err
}

func (sh *shard) push(r request, done sim.Duration, v []byte, found bool, err error) {
	sh.comps = append(sh.comps, Completion{
		Seq:    r.seq,
		Client: r.op.Client,
		Kind:   r.op.Kind,
		Wave:   r.op.Wave,
		Submit: r.op.Submit,
		Done:   done,
		Value:  v,
		Found:  found,
		Err:    err,
	})
}

func countWrites(rs []request) int {
	n := 0
	for i := range rs {
		if rs[i].op.Kind != Get {
			n++
		}
	}
	return n
}

// sortRequests orders by (submit time, submission number): FIFO by
// virtual arrival with deterministic ties. Submission numbers are
// unique, so the order is total and the sort need not be stable;
// slices.SortFunc allocates nothing at any intake size.
func sortRequests(rs []request) {
	slices.SortFunc(rs, func(a, b request) int {
		if c := cmp.Compare(a.op.Submit, b.op.Submit); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
}

// Load ingests keys 0..numKeys-1 with nil values of valueBytes each —
// the paper's sequential load — each key on its owning shard. Shards
// load in parallel; within a shard ids stay ascending, so a 1-shard
// load is the exact historical sequence. Returns the time the slowest
// shard finished and the first error in shard order.
func (s *Store) Load(valueBytes int, numKeys uint64) (sim.Duration, error) {
	shards := len(s.shards)
	s.each(func(sh *shard) {
		key := make([]byte, kv.KeySize)
		now := sh.clock
		var err error
		for id := uint64(0); id < numKeys; id++ {
			if ShardOf(id, shards) != sh.idx {
				continue
			}
			kv.AppendKey(key, id)
			now, err = sh.eng.Put(now, key, nil, valueBytes)
			if err != nil {
				break
			}
		}
		sh.clock = now
		sh.err = err
	})
	return s.collectEach()
}

// FlushAll flushes every shard (no later than now on each shard's
// clock) and returns the time the slowest shard finished.
func (s *Store) FlushAll(now sim.Duration) (sim.Duration, error) {
	s.each(func(sh *shard) {
		sh.clock, sh.err = sh.eng.FlushAll(max(sh.clock, now))
	})
	return s.collectEach()
}

// Quiesce drains background work on every shard and returns the time
// the slowest shard went idle.
func (s *Store) Quiesce(now sim.Duration) sim.Duration {
	s.each(func(sh *shard) {
		sh.clock = sh.eng.Quiesce(max(sh.clock, now))
		sh.err = nil
	})
	end, _ := s.collectEach()
	return end
}

// collectEach gathers the max clock and first error after an each().
func (s *Store) collectEach() (sim.Duration, error) {
	var end sim.Duration
	var err error
	for _, sh := range s.shards {
		if sh.clock > end {
			end = sh.clock
		}
		if err == nil && sh.err != nil {
			err = sh.err
		}
		sh.err = nil
	}
	return end, err
}

// Scan scatters a range read to every shard and k-way merges the
// per-shard results (shard key spaces are disjoint, so the merge is a
// plain ordered interleave) up to limit entries. It returns the time
// the slowest shard finished its scan.
func (s *Store) Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error) {
	parts := make([][]kv.Entry, len(s.shards))
	s.each(func(sh *shard) {
		sh.clock, parts[sh.idx], sh.err = sh.eng.Scan(max(sh.clock, now), start, limit)
	})
	end, err := s.collectEach()
	if err != nil {
		return end, nil, err
	}
	heads := make([]int, len(parts))
	var out []kv.Entry
	for len(out) < limit {
		best := -1
		for i, p := range parts {
			if heads[i] >= len(p) {
				continue
			}
			if best < 0 || kv.CompareKeys(p[heads[i]].Key, parts[best][heads[best]].Key) < 0 {
				best = i
			}
		}
		if best < 0 {
			break
		}
		out = append(out, parts[best][heads[best]])
		heads[best]++
	}
	return end, out, nil
}

// Stats aggregates engine statistics over shards.
func (s *Store) Stats() kv.EngineStats {
	var t kv.EngineStats
	for _, sh := range s.shards {
		t = t.Add(sh.eng.Stats())
	}
	return t
}

// DiskUsageBytes aggregates disk footprint over shards.
func (s *Store) DiskUsageBytes() int64 {
	var t int64
	for _, sh := range s.shards {
		t += sh.eng.DiskUsageBytes()
	}
	return t
}
