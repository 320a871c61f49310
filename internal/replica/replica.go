// Package replica turns one store shard into a replica group of R
// complete engine stacks — each replica owns a private device,
// filesystem and engine — behind the same engine-shaped surface the
// serving layer (internal/store) already drives. Two seed-deterministic
// replication modes are supported:
//
//   - Chain: writes flow head→tail through the live replicas in index
//     order and acknowledge when the tail finishes (the write is then
//     on every live replica); reads are served at the tail.
//   - Quorum: writes go to every live replica and acknowledge at the
//     ⌈R/2⌉+1-th completion (majority of the CONFIGURED replica count,
//     so a write never acks on a minority after failures); reads are
//     served at the first consistent replica with read-repair applied
//     to any live replica that diverges.
//
// Every live replica applies every write synchronously in virtual
// time — the mode only decides which completion time acknowledges the
// operation — so live, caught-up replicas are logically identical at
// all times. Divergence enters only through failures: Kill removes a
// replica from the group, Revive re-attaches a recovered engine in a
// stale state (it may have lost unsynced tail writes and missed
// everything while down), and Reconcile repairs stale replicas from a
// caught-up authority by a paged merge-diff of full scans, after which
// the group is byte-comparable replica to replica.
//
// The group reports LOGICAL engine statistics — one Put is one Put no
// matter how many replicas applied it — by accounting exactly one
// replica's stats delta per operation, so throughput and WA-A keep the
// paper's definitions while the R× device traffic stays visible in the
// per-device block counters. Everything is deterministic: replicas are
// visited in index order, no map iteration, no wall clock.
package replica

import (
	"bytes"
	"fmt"
	"slices"

	"ptsbench/internal/engine"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// Mode selects the replication discipline.
type Mode uint8

// Replication modes.
const (
	// Chain: writes head→tail, ack at the tail, reads at the tail.
	Chain Mode = iota
	// Quorum: writes everywhere, ack at majority, reads with
	// read-repair.
	Quorum
)

// String implements fmt.Stringer with the spec-file spelling.
func (m Mode) String() string {
	if m == Quorum {
		return "quorum"
	}
	return "chain"
}

// ParseMode maps a spec-file mode name to its Mode. The empty string is
// the default (chain), matching core.Spec.Validate.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "chain":
		return Chain, nil
	case "quorum":
		return Quorum, nil
	default:
		return 0, fmt.Errorf("replica: unknown mode %q (have chain, quorum)", s)
	}
}

// MemberError attributes a failure inside the group to the replica
// whose engine raised it. The serving layer's failover path unwraps it
// (via the structural MemberIndex surface) to decide WHICH replica to
// fail out of the group; errors.Is/As reach the underlying engine or
// device error through Unwrap, so transient-vs-persistent
// classification (deverr) still works through the wrapper.
type MemberError struct {
	Member int
	Err    error
}

// Error implements error.
func (e *MemberError) Error() string {
	return fmt.Sprintf("replica %d: %v", e.Member, e.Err)
}

// Unwrap exposes the member engine's error to errors.Is/As.
func (e *MemberError) Unwrap() error { return e.Err }

// MemberIndex returns the failing replica's index — the structural
// surface the store's failover path matches via errors.As, so it never
// has to import this package.
func (e *MemberError) MemberIndex() int { return e.Member }

// memberErr wraps a member-engine failure with its replica index; nil
// stays nil.
func memberErr(i int, err error) error {
	if err == nil {
		return nil
	}
	return &MemberError{Member: i, Err: err}
}

// Member is one replica's engine at construction or revival time. Start
// seeds the replica's clock (recovery end time for recovered engines).
type Member struct {
	Engine engine.Engine
	Start  sim.Duration
}

// rep is one replica's runtime state. Each replica keeps its own
// monotonic virtual clock: operations start at max(group time, replica
// clock), so a replica's engine never sees time run backwards even when
// the group serves reads and writes at different replicas.
type rep struct {
	eng   engine.Engine
	clock sim.Duration
	live  bool
	stale bool // revived but not yet reconciled; never serves reads
}

// Group is a replica group behind the engine surface. It implements
// engine.Engine and engine.GroupCommitter, so a store.Stack can carry a
// Group wherever it carried a bare engine.
type Group struct {
	mode  Mode
	reps  []rep
	stats kv.EngineStats // logical (one delta per op), not summed
	dones []sim.Duration // scratch for quorum ack sorting

	// Scratch for a quorum read's per-replica answers, indexed by
	// replica and owned by the group so a read allocates nothing.
	vals   [][]byte
	founds []bool
}

// New builds a replica group over the members in replica-index order.
// Replica 0 is the chain head; the last member is the chain tail.
func New(mode Mode, members []Member) (*Group, error) {
	if len(members) < 1 {
		return nil, fmt.Errorf("replica: a group needs at least 1 member (got %d)", len(members))
	}
	if mode != Chain && mode != Quorum {
		return nil, fmt.Errorf("replica: unknown mode %d", mode)
	}
	g := &Group{
		mode:   mode,
		dones:  make([]sim.Duration, 0, len(members)),
		vals:   make([][]byte, len(members)),
		founds: make([]bool, len(members)),
	}
	for _, m := range members {
		if m.Engine == nil {
			return nil, fmt.Errorf("replica: nil engine in member list")
		}
		g.reps = append(g.reps, rep{eng: m.Engine, clock: m.Start, live: true})
	}
	return g, nil
}

// Replicas returns the configured replica count (live or not).
func (g *Group) Replicas() int { return len(g.reps) }

// Alive reports whether replica i is live.
func (g *Group) Alive(i int) bool { return g.reps[i].live }

// Engine returns replica i's engine (tests and harnesses inspect
// replicas directly; the serving path never needs it).
func (g *Group) Engine(i int) engine.Engine { return g.reps[i].eng }

// majority is the write-acknowledgement quorum: ⌈R/2⌉+1 over the
// CONFIGURED replica count — a constant, so a write can never ack on a
// shrinking minority as replicas die.
func (g *Group) majority() int { return len(g.reps)/2 + 1 }

// Live returns the number of live replicas — the store's failover path
// reads it (with MinLive) to decide whether the group can afford to
// lose another member.
func (g *Group) Live() int { return g.liveCount() }

// MinLive returns the fewest live replicas at which the group still
// serves: a chain degrades all the way down to one replica, a quorum
// needs its configured write majority.
func (g *Group) MinLive() int {
	if g.mode == Quorum {
		return g.majority()
	}
	return 1
}

// liveCount counts live replicas.
func (g *Group) liveCount() int {
	n := 0
	for i := range g.reps {
		if g.reps[i].live {
			n++
		}
	}
	return n
}

// serveIdx picks the replica that serves reads and scans: the chain
// tail (last live, caught-up replica) or the quorum's first consistent
// replica. Stale replicas never serve. Returns -1 when no consistent
// replica is live.
func (g *Group) serveIdx() int {
	if g.mode == Chain {
		for i := len(g.reps) - 1; i >= 0; i-- {
			if g.reps[i].live && !g.reps[i].stale {
				return i
			}
		}
		return -1
	}
	for i := range g.reps {
		if g.reps[i].live && !g.reps[i].stale {
			return i
		}
	}
	return -1
}

// write runs one mutation through the group under the mode's ack rule.
// apply performs the operation on one replica's engine at the given
// start time. The returned time is the replication commit point.
func (g *Group) write(now sim.Duration, apply func(e engine.Engine, at sim.Duration) (sim.Duration, error)) (sim.Duration, error) {
	acct := -1 // first live replica accounts the op's logical stats
	var before kv.EngineStats
	if g.mode == Chain {
		t := now
		for i := range g.reps {
			r := &g.reps[i]
			if !r.live {
				continue
			}
			if acct < 0 {
				acct = i
				before = r.eng.Stats()
			}
			done, err := apply(r.eng, max(r.clock, t))
			r.clock = done
			if err != nil {
				return done, memberErr(i, err)
			}
			t = done // the chain forwards after the local apply
		}
		if acct < 0 {
			return now, fmt.Errorf("replica: no live replica")
		}
		g.stats = g.stats.Add(g.reps[acct].eng.Stats().Sub(before))
		return t, nil
	}
	// Quorum: every live replica applies at its own clock; the op acks
	// at the majority-th smallest completion.
	need := g.majority()
	if live := g.liveCount(); live < need {
		return now, fmt.Errorf("replica: quorum lost: %d of %d replicas live (writes need %d)", live, len(g.reps), need)
	}
	g.dones = g.dones[:0]
	for i := range g.reps {
		r := &g.reps[i]
		if !r.live {
			continue
		}
		if acct < 0 {
			acct = i
			before = r.eng.Stats()
		}
		done, err := apply(r.eng, max(r.clock, now))
		r.clock = done
		if err != nil {
			return done, memberErr(i, err)
		}
		g.dones = append(g.dones, done)
	}
	g.stats = g.stats.Add(g.reps[acct].eng.Stats().Sub(before))
	return kth(g.dones, need), nil
}

// kth returns the k-th smallest duration (1-based) of ds, which always
// holds at least k entries by the quorum precondition.
func kth(ds []sim.Duration, k int) sim.Duration {
	slices.Sort(ds)
	return ds[k-1]
}

// Put implements kv.Engine: the write replicates under the group's ack
// rule and the returned time is the replication commit point.
func (g *Group) Put(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, error) {
	return g.write(now, func(e engine.Engine, at sim.Duration) (sim.Duration, error) {
		return e.Put(at, key, value, valueLen)
	})
}

// Delete implements kv.Engine, replicating like Put.
func (g *Group) Delete(now sim.Duration, key []byte) (sim.Duration, error) {
	return g.write(now, func(e engine.Engine, at sim.Duration) (sim.Duration, error) {
		return e.Delete(at, key)
	})
}

// Get implements kv.Engine. Chain serves at the tail. Quorum reads
// every live replica — the read needs a majority up, like the write
// path — takes the first consistent replica's answer and repairs any
// live replica that diverges from it (a revived replica serving before
// Reconcile caught it up).
func (g *Group) Get(now sim.Duration, key []byte) (sim.Duration, []byte, bool, error) {
	srv := g.serveIdx()
	if srv < 0 {
		return now, nil, false, fmt.Errorf("replica: no consistent replica live")
	}
	if g.mode == Chain {
		r := &g.reps[srv]
		before := r.eng.Stats()
		done, v, found, err := r.eng.Get(max(r.clock, now), key)
		r.clock = done
		if err != nil {
			return done, nil, false, memberErr(srv, err)
		}
		g.stats = g.stats.Add(r.eng.Stats().Sub(before))
		return done, v, found, nil
	}
	need := g.majority()
	if live := g.liveCount(); live < need {
		return now, nil, false, fmt.Errorf("replica: quorum lost: %d of %d replicas live (reads need %d)", live, len(g.reps), need)
	}
	var (
		winVal   []byte
		winFound bool
		vals     = g.vals
		founds   = g.founds
		before   = g.reps[srv].eng.Stats()
	)
	// Cleared on entry: a slot a dead replica leaves unwritten never
	// carries an earlier read's answer, and the group keeps at most one
	// read's engine buffers reachable.
	clear(vals)
	clear(founds)
	g.dones = g.dones[:0]
	for i := range g.reps {
		r := &g.reps[i]
		if !r.live {
			continue
		}
		done, v, found, err := r.eng.Get(max(r.clock, now), key)
		r.clock = done
		if err != nil {
			return done, nil, false, memberErr(i, err)
		}
		g.dones = append(g.dones, done)
		vals[i], founds[i] = v, found
		if i == srv {
			winVal, winFound = v, found
		}
	}
	// Read-repair: re-write the winner onto any live replica that
	// returned something else. Repairs go straight to the replica's
	// engine — they are replication traffic, not user operations, so
	// they stay out of the logical stats.
	for i := range g.reps {
		r := &g.reps[i]
		if !r.live || i == srv {
			continue
		}
		if founds[i] == winFound && bytes.Equal(vals[i], winVal) {
			continue
		}
		if err := g.repair(r, key, winVal, winFound, 0); err != nil {
			return r.clock, nil, false, memberErr(i, err)
		}
	}
	g.stats = g.stats.Add(g.reps[srv].eng.Stats().Sub(before))
	return kth(g.dones, need), winVal, winFound, nil
}

// repair overwrites one replica's state for key with the
// authoritative (value, found) pair. valueLen carries the accounted
// size when the authoritative value is accounting-mode nil; a present
// key with a nil value and zero length cannot be reconstructed and is
// skipped (accounting-mode groups reconverge through Reconcile's
// entry-level lengths instead).
func (g *Group) repair(r *rep, key, val []byte, found bool, valueLen int) error {
	var err error
	if !found {
		r.clock, err = r.eng.Delete(r.clock, key)
		return err
	}
	if val == nil && valueLen == 0 {
		return nil
	}
	r.clock, err = r.eng.Put(r.clock, key, val, valueLen)
	return err
}

// Scan implements kv.Engine at the group's consistent serving replica,
// so a cross-shard merge scan reads one coherent replica per group.
func (g *Group) Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error) {
	srv := g.serveIdx()
	if srv < 0 {
		return now, nil, fmt.Errorf("replica: no consistent replica live")
	}
	r := &g.reps[srv]
	before := r.eng.Stats()
	done, ents, err := r.eng.Scan(max(r.clock, now), start, limit)
	r.clock = done
	if err != nil {
		return done, nil, memberErr(srv, err)
	}
	g.stats = g.stats.Add(r.eng.Stats().Sub(before))
	return done, ents, nil
}

// FlushAll flushes every live replica and returns when the slowest
// finished.
func (g *Group) FlushAll(now sim.Duration) (sim.Duration, error) {
	end := now
	var firstErr error
	for i := range g.reps {
		r := &g.reps[i]
		if !r.live {
			continue
		}
		done, err := r.eng.FlushAll(max(r.clock, now))
		r.clock = done
		if err != nil && firstErr == nil {
			firstErr = memberErr(i, err)
		}
		if done > end {
			end = done
		}
	}
	return end, firstErr
}

// Quiesce drains background work on every live replica.
func (g *Group) Quiesce(now sim.Duration) sim.Duration {
	end := now
	for i := range g.reps {
		r := &g.reps[i]
		if !r.live {
			continue
		}
		r.clock = r.eng.Quiesce(max(r.clock, now))
		if r.clock > end {
			end = r.clock
		}
	}
	return end
}

// Close shuts every live replica down.
func (g *Group) Close(now sim.Duration) (sim.Duration, error) {
	end := now
	var firstErr error
	for i := range g.reps {
		r := &g.reps[i]
		if !r.live {
			continue
		}
		done, err := r.eng.Close(max(r.clock, now))
		r.clock = done
		if err != nil && firstErr == nil {
			firstErr = memberErr(i, err)
		}
		if done > end {
			end = done
		}
	}
	return end, firstErr
}

// Stats returns the group's LOGICAL counters: exactly one replica's
// stats delta was accumulated per user operation, so one replicated Put
// counts once — the R× physical write traffic shows up in the
// per-device block counters, where write amplification is measured.
func (g *Group) Stats() kv.EngineStats { return g.stats }

// DiskUsageBytes sums the live replicas' footprints: replication
// honestly multiplies space, and the space-amplification figures must
// say so.
func (g *Group) DiskUsageBytes() int64 {
	var t int64
	for i := range g.reps {
		if g.reps[i].live {
			t += g.reps[i].eng.DiskUsageBytes()
		}
	}
	return t
}

// BeginGroupCommit implements engine.GroupCommitter by bracketing every
// live replica that supports it (groups are homogeneous, so it is all
// or none in practice).
func (g *Group) BeginGroupCommit() {
	for i := range g.reps {
		if !g.reps[i].live {
			continue
		}
		if gc, ok := g.reps[i].eng.(engine.GroupCommitter); ok {
			gc.BeginGroupCommit()
		}
	}
}

// EndGroupCommit closes the group commit on every live replica and
// returns the replication commit point of the shared sync: the tail's
// sync for chain, the majority-th for quorum. When no replica supports
// group commit it returns 0, which callers treat as "no shared sync
// happened" (the store only lifts completion times forward).
func (g *Group) EndGroupCommit(now sim.Duration) (sim.Duration, error) {
	g.dones = g.dones[:0]
	var firstErr error
	supported := false
	for i := range g.reps {
		r := &g.reps[i]
		if !r.live {
			continue
		}
		gc, ok := r.eng.(engine.GroupCommitter)
		if !ok {
			continue
		}
		supported = true
		done, err := gc.EndGroupCommit(max(r.clock, now))
		if err != nil && firstErr == nil {
			firstErr = memberErr(i, err)
		}
		if done > r.clock {
			r.clock = done
		}
		g.dones = append(g.dones, done)
	}
	if !supported || firstErr != nil {
		return 0, firstErr
	}
	if g.mode == Chain {
		return g.dones[len(g.dones)-1], nil
	}
	need := g.majority()
	if len(g.dones) < need {
		return 0, fmt.Errorf("replica: quorum lost: %d of %d replicas live (sync needs %d)", len(g.dones), len(g.reps), need)
	}
	return kth(g.dones, need), nil
}

// Kill removes replica i from the group: its device died (the crash
// harness cuts its fault wrapper) and no operation routes to it until
// Revive. Killing the last live replica is allowed — the group then
// fails every operation, which is the honest outcome.
func (g *Group) Kill(i int) error {
	if i < 0 || i >= len(g.reps) {
		return fmt.Errorf("replica: kill index %d out of range (replicas %d)", i, len(g.reps))
	}
	if !g.reps[i].live {
		return fmt.Errorf("replica: replica %d is already dead", i)
	}
	g.reps[i].live = false
	g.reps[i].stale = false
	return nil
}

// Revive re-attaches a recovered engine as replica i. The replica comes
// back STALE: it receives every new write but never serves reads until
// Reconcile has repaired whatever it lost while down.
func (g *Group) Revive(i int, m Member) error {
	if i < 0 || i >= len(g.reps) {
		return fmt.Errorf("replica: revive index %d out of range (replicas %d)", i, len(g.reps))
	}
	if g.reps[i].live {
		return fmt.Errorf("replica: replica %d is already live", i)
	}
	if m.Engine == nil {
		return fmt.Errorf("replica: revive with nil engine")
	}
	g.reps[i] = rep{eng: m.Engine, clock: m.Start, live: true, stale: true}
	return nil
}

// reconcilePage is the scan window of Reconcile's merge-diff.
const reconcilePage = 128

// Reconcile repairs every stale replica from the group's consistent
// authority (the serving replica) by a paged merge-diff over full
// scans: keys missing or different on the stale replica are re-written
// from the authority, keys the authority no longer holds are deleted.
// Afterwards every live replica is byte-comparable and stale replicas
// rejoin the serving rotation. Returns the virtual time the slowest
// repaired replica finished.
func (g *Group) Reconcile(now sim.Duration) (sim.Duration, error) {
	auth := g.serveIdx()
	if auth < 0 {
		return now, fmt.Errorf("replica: no consistent replica live to reconcile from")
	}
	end := now
	for i := range g.reps {
		r := &g.reps[i]
		if !r.live || !r.stale {
			continue
		}
		if err := g.reconcileOne(&g.reps[auth], r, now); err != nil {
			return r.clock, fmt.Errorf("replica: reconciling replica %d: %w", i, err)
		}
		r.stale = false
		if r.clock > end {
			end = r.clock
		}
	}
	if g.reps[auth].clock > end {
		end = g.reps[auth].clock
	}
	return end, nil
}

// pager pages one engine's key space in scan order.
type pager struct {
	eng   engine.Engine
	clock *sim.Duration
	buf   []kv.Entry
	idx   int
	next  []byte // continuation key for the next page
	done  bool
}

func newPager(r *rep, start []byte) *pager {
	return &pager{eng: r.eng, clock: &r.clock, next: append([]byte(nil), start...)}
}

// peek returns the current entry without consuming it; ok is false at
// the end of the key space.
func (p *pager) peek(now sim.Duration) (*kv.Entry, bool, error) {
	for p.idx >= len(p.buf) {
		if p.done {
			return nil, false, nil
		}
		done, ents, err := p.eng.Scan(max(*p.clock, now), p.next, reconcilePage)
		*p.clock = done
		if err != nil {
			return nil, false, err
		}
		p.buf, p.idx = ents, 0
		if len(ents) < reconcilePage {
			p.done = true
		} else {
			p.next, p.done = nextKey(ents[len(ents)-1].Key)
		}
	}
	return &p.buf[p.idx], true, nil
}

func (p *pager) advance() { p.idx++ }

// nextKey returns the smallest key of k's width strictly greater than
// k (big-endian increment with carry); last reports that k is the
// all-0xFF key, which has none.
func nextKey(k []byte) (next []byte, last bool) {
	n := append([]byte(nil), k...)
	for i := len(n) - 1; i >= 0; i-- {
		n[i]++
		if n[i] != 0 {
			return n, false
		}
	}
	return nil, true
}

// reconcileOne merge-diffs the authority against one stale replica and
// applies the fixes to the replica's engine.
func (g *Group) reconcileOne(auth, stale *rep, now sim.Duration) error {
	start := make([]byte, kv.KeySize) // all zeros: the smallest canonical key
	ap, sp := newPager(auth, start), newPager(stale, start)
	for {
		ae, aok, err := ap.peek(now)
		if err != nil {
			return err
		}
		se, sok, err := sp.peek(now)
		if err != nil {
			return err
		}
		switch {
		case !aok && !sok:
			return nil
		case aok && (!sok || kv.CompareKeys(ae.Key, se.Key) < 0):
			// Missing on the stale replica: re-write from the authority.
			if err := g.repair(stale, ae.Key, ae.Value, true, ae.ValueLen); err != nil {
				return err
			}
			ap.advance()
		case sok && (!aok || kv.CompareKeys(se.Key, ae.Key) < 0):
			// The authority no longer holds it: delete.
			if err := g.repair(stale, se.Key, nil, false, 0); err != nil {
				return err
			}
			sp.advance()
		default: // same key on both
			if !bytes.Equal(ae.Value, se.Value) || ae.ValueLen != se.ValueLen {
				if err := g.repair(stale, ae.Key, ae.Value, true, ae.ValueLen); err != nil {
					return err
				}
			}
			ap.advance()
			sp.advance()
		}
	}
}
