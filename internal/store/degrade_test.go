package store_test

// Degraded-path tests over a scripted fake engine: transient errors
// retry with deterministic virtual-time backoff, persistent
// member-attributed errors fail the replica over when the group can
// afford it, everything else latches the shard unavailable until
// ClearFailure, and every event is counted in ErrorStats.

import (
	"errors"
	"fmt"
	"testing"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/deverr"
	"ptsbench/internal/engine"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/store"
)

// fakeMemberErr is a persistent error attributed to one replica of a
// group, matching the structural surface failover looks for.
type fakeMemberErr struct{ idx int }

func (e *fakeMemberErr) Error() string    { return fmt.Sprintf("member %d: disk on fire", e.idx) }
func (e *fakeMemberErr) MemberIndex() int { return e.idx }

// scriptedEngine serves every op in a fixed cost and pops one scripted
// verdict per op (nil = success). When failover is enabled it also
// implements the store.Failover surface.
type scriptedEngine struct {
	verdicts []error
	ops      int
	cost     sim.Duration

	failover bool
	live     int
	minLive  int
	killed   []int
}

// isUnavailable reports whether err (or anything it wraps) marks a shard
// in unavailable mode.
func isUnavailable(err error) bool {
	var u *store.Unavailable
	return errors.As(err, &u)
}

func (f *scriptedEngine) pop() error {
	f.ops++
	if len(f.verdicts) == 0 {
		return nil
	}
	v := f.verdicts[0]
	f.verdicts = f.verdicts[1:]
	return v
}

func (f *scriptedEngine) Put(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, error) {
	if err := f.pop(); err != nil {
		return now, err
	}
	return now + f.cost, nil
}

func (f *scriptedEngine) Get(now sim.Duration, key []byte) (sim.Duration, []byte, bool, error) {
	if err := f.pop(); err != nil {
		return now, nil, false, err
	}
	return now + f.cost, nil, true, nil
}

func (f *scriptedEngine) Delete(now sim.Duration, key []byte) (sim.Duration, error) {
	return f.Put(now, key, nil, 0)
}

func (f *scriptedEngine) Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error) {
	return now, nil, nil
}

func (f *scriptedEngine) FlushAll(now sim.Duration) (sim.Duration, error) { return now, nil }
func (f *scriptedEngine) Stats() kv.EngineStats                           { return kv.EngineStats{} }
func (f *scriptedEngine) DiskUsageBytes() int64                           { return 0 }
func (f *scriptedEngine) Quiesce(now sim.Duration) sim.Duration           { return now }
func (f *scriptedEngine) Close(now sim.Duration) (sim.Duration, error)    { return now, nil }

func (f *scriptedEngine) Kill(i int) error {
	if !f.failover {
		return errors.New("no failover")
	}
	f.killed = append(f.killed, i)
	f.live--
	return nil
}
func (f *scriptedEngine) Live() int    { return f.live }
func (f *scriptedEngine) MinLive() int { return f.minLive }

var _ engine.Engine = (*scriptedEngine)(nil)
var _ store.Failover = (*scriptedEngine)(nil)

func newDegradeStore(t *testing.T, eng *scriptedEngine, autoFailover bool) *store.Store {
	t.Helper()
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  1 << 20,
		PageSize:      4096,
		PagesPerBlock: 64,
		Profile:       flash.ProfileSSD1().Scaled(4096),
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.New(1, func(int) (store.Stack, error) {
		return store.Stack{Engine: eng, Dev: blockdev.New(ssd), AutoFailover: autoFailover}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func oneGet(st *store.Store, submit sim.Duration) store.Completion {
	st.Submit(store.Op{Kind: store.Get, KeyID: 1, Key: kv.EncodeKey(1), Submit: submit})
	return st.Pump()[0]
}

func transientEIO() error {
	return &deverr.Error{Op: deverr.OpRead, LBA: 4, Kind: deverr.KindEIO, Transient: true}
}

// TestDegradeRetryBackoff: transient errors retry on the virtual clock
// with the documented capped exponential backoff, succeed, and count.
func TestDegradeRetryBackoff(t *testing.T) {
	eng := &scriptedEngine{verdicts: []error{transientEIO(), transientEIO()}, cost: 10}
	st := newDegradeStore(t, eng, false)
	c := oneGet(st, 0)
	if c.Err != nil {
		t.Fatalf("retries should have absorbed the transient errors: %v", c.Err)
	}
	// Two failed attempts back off 100µs then 200µs; the third attempt
	// succeeds at its fixed cost.
	want := sim.Duration(100_000 + 200_000 + 10)
	if c.Done != want {
		t.Fatalf("completion time %d, want %d (deterministic backoff)", c.Done, want)
	}
	es := st.ErrorStats()
	if es.Transient != 2 || es.Retries != 2 || es.Persistent != 0 || es.Unavailable != 0 {
		t.Fatalf("stats wrong: %+v", es)
	}
}

// TestDegradeRetryExhaustion: an op out of retry budget surfaces the
// transient error WITHOUT latching the shard — the next op serves.
func TestDegradeRetryExhaustion(t *testing.T) {
	verdicts := make([]error, 0, 8)
	for i := 0; i < 8; i++ {
		verdicts = append(verdicts, transientEIO())
	}
	eng := &scriptedEngine{verdicts: verdicts, cost: 10}
	st := newDegradeStore(t, eng, false)
	c := oneGet(st, 0)
	if c.Err == nil || !deverr.IsTransient(c.Err) {
		t.Fatalf("exhausted op should surface its transient error, got %v", c.Err)
	}
	if isUnavailable(c.Err) {
		t.Fatal("a transient failure must not latch the shard")
	}
	es := st.ErrorStats()
	if es.Retries != 6 {
		t.Fatalf("per-op retries should stop at 6, got %+v", es)
	}
	if c2 := oneGet(st, c.Done); c2.Err != nil {
		t.Fatalf("shard should keep serving after a transient give-up: %v", c2.Err)
	}
}

// TestDegradeUnavailableLatch: a persistent error latches the shard;
// every later op refuses with the same typed error until ClearFailure.
func TestDegradeUnavailableLatch(t *testing.T) {
	persistent := &deverr.Error{Op: deverr.OpRead, LBA: 9, Kind: deverr.KindLatent}
	eng := &scriptedEngine{verdicts: []error{persistent}, cost: 10}
	st := newDegradeStore(t, eng, false)
	c := oneGet(st, 0)
	if !isUnavailable(c.Err) {
		t.Fatalf("persistent error should latch unavailable, got %v", c.Err)
	}
	if !errors.Is(c.Err, persistent) {
		t.Fatal("the latching cause must stay reachable through Unwrap")
	}
	c2 := oneGet(st, c.Done)
	if !isUnavailable(c2.Err) {
		t.Fatalf("latched shard served an op: %v", c2.Err)
	}
	es := st.ErrorStats()
	if es.Persistent != 1 || es.Unavailable != 1 {
		t.Fatalf("stats wrong: %+v", es)
	}
	if err := st.ClearFailure(0); err != nil {
		t.Fatal(err)
	}
	if c3 := oneGet(st, c2.Done); c3.Err != nil {
		t.Fatalf("cleared shard should serve: %v", c3.Err)
	}
}

// TestClearFailureValidates: out-of-range shard indexes error instead
// of panicking.
func TestClearFailureValidates(t *testing.T) {
	st := newDegradeStore(t, &scriptedEngine{cost: 10}, false)
	for _, i := range []int{-1, 1, 99} {
		if err := st.ClearFailure(i); err == nil {
			t.Errorf("ClearFailure(%d) should error", i)
		}
	}
	if err := st.ClearFailure(0); err != nil {
		t.Fatal(err)
	}
}

// TestDegradeAutoFailover: a persistent member-attributed error fails
// the replica out of the group and the op retries successfully.
func TestDegradeAutoFailover(t *testing.T) {
	eng := &scriptedEngine{
		verdicts: []error{&fakeMemberErr{idx: 1}},
		cost:     10, failover: true, live: 2, minLive: 1,
	}
	st := newDegradeStore(t, eng, true)
	c := oneGet(st, 0)
	if c.Err != nil {
		t.Fatalf("failover should have absorbed the member error: %v", c.Err)
	}
	if len(eng.killed) != 1 || eng.killed[0] != 1 {
		t.Fatalf("replica 1 should have been killed, got %v", eng.killed)
	}
	es := st.ErrorStats()
	if es.Failovers != 1 || es.Persistent != 1 {
		t.Fatalf("stats wrong: %+v", es)
	}
}

// TestDegradeFailoverRespectsQuorum: with the group already at its
// minimum live count, the member error latches instead of killing the
// last copies.
func TestDegradeFailoverRespectsQuorum(t *testing.T) {
	eng := &scriptedEngine{
		verdicts: []error{&fakeMemberErr{idx: 0}},
		cost:     10, failover: true, live: 1, minLive: 1,
	}
	st := newDegradeStore(t, eng, true)
	c := oneGet(st, 0)
	if !isUnavailable(c.Err) {
		t.Fatalf("group at MinLive must latch, got %v", c.Err)
	}
	if len(eng.killed) != 0 {
		t.Fatalf("no replica should have been killed, got %v", eng.killed)
	}
}

// TestDegradeFailoverOptIn: without AutoFailover the same member error
// latches the shard — harnesses that orchestrate failover themselves
// keep exclusive control.
func TestDegradeFailoverOptIn(t *testing.T) {
	eng := &scriptedEngine{
		verdicts: []error{&fakeMemberErr{idx: 1}},
		cost:     10, failover: true, live: 2, minLive: 1,
	}
	st := newDegradeStore(t, eng, false)
	c := oneGet(st, 0)
	if !isUnavailable(c.Err) {
		t.Fatalf("AutoFailover off must latch, got %v", c.Err)
	}
	if len(eng.killed) != 0 {
		t.Fatalf("no replica should have been killed, got %v", eng.killed)
	}
}

// TestDegradeLatchedNotRetried: an engine that latched a transient
// cause (deverr.Latched) is permanently broken — the store must treat
// it as persistent, not burn its retry budget on a dead engine.
func TestDegradeLatchedNotRetried(t *testing.T) {
	latched := deverr.Latch(transientEIO())
	eng := &scriptedEngine{verdicts: []error{latched}, cost: 10}
	st := newDegradeStore(t, eng, false)
	c := oneGet(st, 0)
	if !isUnavailable(c.Err) {
		t.Fatalf("latched error should latch the shard, got %v", c.Err)
	}
	es := st.ErrorStats()
	if es.Retries != 0 || es.Persistent != 1 {
		t.Fatalf("latched error must not be retried: %+v", es)
	}
}

// TestDegradeDeterminism: the same scripted error sequence produces the
// same completion times and stats.
func TestDegradeDeterminism(t *testing.T) {
	run := func() (sim.Duration, store.ErrorStats) {
		eng := &scriptedEngine{
			verdicts: []error{transientEIO(), transientEIO(), transientEIO()},
			cost:     10,
		}
		st := newDegradeStore(t, eng, false)
		c := oneGet(st, 0)
		if c.Err != nil {
			t.Fatal(c.Err)
		}
		return c.Done, st.ErrorStats()
	}
	d1, s1 := run()
	d2, s2 := run()
	if d1 != d2 || s1 != s2 {
		t.Fatalf("degraded path diverged: %d %+v vs %d %+v", d1, s1, d2, s2)
	}
}
