package store_test

// Pump is held to the pump it replaced (store.WorkerPump: shard workers,
// a barrier, a sort by Seq) completion for completion, over seeded
// random shapes and through every failure branch of a shard's service
// loop. The property the second table states on its own: every
// submitted request completes exactly once, in the pump that serviced
// it — Pump's placement by submission number leans on it.

import (
	"bytes"
	"fmt"
	"testing"

	"ptsbench/internal/deverr"
	"ptsbench/internal/engine"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/store"
)

// pureEngine completes every operation at a time that is a pure
// function of (start, key), so two stores fed the same submissions must
// agree to the last field whichever goroutine serviced a shard and in
// whatever order shards ran. A Get answers with the key's own bytes
// (nothing allocates); failures are scripted by attempt number.
type pureEngine struct {
	attempts int           // Put/Get/Delete attempts so far
	fail     map[int]error // attempt (1-based) → the error it gets
	always   error         // while non-nil, every attempt gets it
	syncs    []error       // EndGroupCommit verdicts in order; none left = success
}

func (e *pureEngine) serve(now sim.Duration, key []byte) (sim.Duration, error) {
	e.attempts++
	if e.always != nil {
		return now, e.always
	}
	if err := e.fail[e.attempts]; err != nil {
		return now, err
	}
	h := uint64(now)
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return now + 50 + sim.Duration(h%977), nil
}

func (e *pureEngine) Put(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, error) {
	return e.serve(now, key)
}

func (e *pureEngine) Delete(now sim.Duration, key []byte) (sim.Duration, error) {
	return e.serve(now, key)
}

func (e *pureEngine) Get(now sim.Duration, key []byte) (sim.Duration, []byte, bool, error) {
	done, err := e.serve(now, key)
	if err != nil || key[len(key)-1]%4 == 0 {
		return done, nil, false, err
	}
	return done, key, true, nil
}

func (e *pureEngine) BeginGroupCommit() {}

func (e *pureEngine) EndGroupCommit(now sim.Duration) (sim.Duration, error) {
	if len(e.syncs) > 0 {
		err := e.syncs[0]
		e.syncs = e.syncs[1:]
		if err != nil {
			return now, err
		}
	}
	return now + 200, nil
}

func (e *pureEngine) FlushAll(now sim.Duration) (sim.Duration, error) { return now, nil }
func (e *pureEngine) Stats() kv.EngineStats                           { return kv.EngineStats{} }
func (e *pureEngine) DiskUsageBytes() int64                           { return 0 }
func (e *pureEngine) Quiesce(now sim.Duration) sim.Duration           { return now }
func (e *pureEngine) Close(now sim.Duration) (sim.Duration, error)    { return now, nil }

var (
	_ engine.Engine         = (*pureEngine)(nil)
	_ engine.GroupCommitter = (*pureEngine)(nil)
	_ store.Deleter         = (*pureEngine)(nil)
)

// pumpPair is two stores over identically scripted engines, fed the
// same submissions: got is pumped by Store.Pump, want by the reference.
type pumpPair struct {
	got, want *store.Store
	ref       *store.WorkerPump
	seq       uint64 // submissions so far
}

func newPumpPair(t *testing.T, shards int, eng func(shard int) *pureEngine) *pumpPair {
	t.Helper()
	open := func(i int) (store.Stack, error) { return store.Stack{Engine: eng(i)}, nil }
	p := &pumpPair{}
	var err error
	if p.got, err = store.New(shards, open); err != nil {
		t.Fatal(err)
	}
	if p.want, err = store.New(shards, open); err != nil {
		t.Fatal(err)
	}
	p.ref = store.NewWorkerPump(p.want)
	t.Cleanup(func() {
		p.ref.Close()
		p.want.Close()
		p.got.Close()
	})
	return p
}

// round submits ops to both stores, pumps both and checks the
// invariant — one completion per submission, completion i carrying
// submission number base+i and submission i's identity — and every
// field against the reference. It returns Pump's completions.
func (p *pumpPair) round(t *testing.T, ops []store.Op) []store.Completion {
	t.Helper()
	base := p.seq
	for _, op := range ops {
		if a, b := p.got.Submit(op), p.want.Submit(op); a != p.seq || b != p.seq {
			t.Fatalf("submission %d numbered %d and %d", p.seq, a, b)
		}
		p.seq++
	}
	got, want := p.got.Pump(), p.ref.Pump()
	if len(got) != len(ops) || len(want) != len(ops) {
		t.Fatalf("%d ops submitted: Pump completed %d, the reference %d", len(ops), len(got), len(want))
	}
	for i, g := range got {
		op, w := ops[i], want[i]
		if g.Seq != base+uint64(i) {
			t.Fatalf("completion %d has Seq %d, want %d", i, g.Seq, base+uint64(i))
		}
		if g.Client != op.Client || g.Kind != op.Kind || g.Wave != op.Wave || g.Submit != op.Submit {
			t.Fatalf("completion %d (%+v) is not submission %d (%+v)", i, g, i, op)
		}
		if g.Seq != w.Seq || g.Client != w.Client || g.Kind != w.Kind || g.Wave != w.Wave ||
			g.Submit != w.Submit || g.Done != w.Done || g.Found != w.Found ||
			!bytes.Equal(g.Value, w.Value) || fmt.Sprint(g.Err) != fmt.Sprint(w.Err) {
			t.Fatalf("completion %d diverged:\nPump      %+v\nreference %+v", i, g, w)
		}
	}
	if ge, we := p.got.ErrorStats(), p.want.ErrorStats(); ge != we {
		t.Fatalf("error stats diverged:\nPump      %+v\nreference %+v", ge, we)
	}
	return got
}

// randomOps draws n operations submitted at now + [0, 2000) in no
// order: 40 % Get, 40 % Put, 10 % Delete, 10 % a read wave of up to six
// same-client Gets at one submit time.
func randomOps(rng *sim.RNG, n int, now sim.Duration) []store.Op {
	ops := make([]store.Op, 0, n)
	clients := 1 + rng.Intn(8)
	for len(ops) < n {
		id := rng.Uint64n(5000)
		op := store.Op{
			Client: rng.Intn(clients),
			Submit: now + sim.Duration(rng.Uint64n(2000)),
			KeyID:  id,
			Key:    kv.EncodeKey(id),
		}
		switch r := rng.Intn(10); {
		case r < 4:
			op.Kind = store.Get
		case r < 5:
			op.Kind, op.Wave = store.Get, true
			for m := rng.Intn(6); m > 0 && len(ops) < n-1; m-- {
				ops = append(ops, op)
				id = rng.Uint64n(5000)
				op.KeyID, op.Key = id, kv.EncodeKey(id)
			}
		case r < 9:
			op.Kind, op.ValueLen = store.Put, 64
		default:
			op.Kind = store.Delete
		}
		ops = append(ops, op)
	}
	return ops
}

// keysOn returns the first n key ids that route to shard of shards.
func keysOn(shard, shards, n int) []uint64 {
	var ids []uint64
	for id := uint64(0); len(ids) < n; id++ {
		if store.ShardOf(id, shards) == shard {
			ids = append(ids, id)
		}
	}
	return ids
}

func opsOn(ids []uint64, kind store.OpKind, submit sim.Duration, wave bool) []store.Op {
	ops := make([]store.Op, len(ids))
	for i, id := range ids {
		ops[i] = store.Op{Kind: kind, Client: 1, Submit: submit, KeyID: id, Key: kv.EncodeKey(id), Wave: wave}
	}
	return ops
}

func TestPumpMatchesReference(t *testing.T) {
	t.Run("shapes", func(t *testing.T) {
		// Three consecutive pumps of shrinking size on one store: a
		// buffer reused across pumps must not leak a stale entry.
		type shape struct {
			shards int
			sizes  [3]int
		}
		shapes := []shape{{1, [3]int{200, 65, 0}}, {2, [3]int{200, 150, 1}}, {8, [3]int{200, 8, 0}}, {3, [3]int{0, 0, 0}}}
		rng := sim.NewRNG(20)
		for len(shapes) < 48 {
			s := shape{shards: 1 + rng.Intn(8)}
			s.sizes[0] = rng.Intn(201)
			s.sizes[1] = rng.Intn(s.sizes[0] + 1)
			s.sizes[2] = rng.Intn(s.sizes[1] + 1)
			shapes = append(shapes, s)
		}
		var emptyPumps, bigIntakes, waves int
		for _, s := range shapes {
			p := newPumpPair(t, s.shards, func(int) *pureEngine { return &pureEngine{} })
			var now sim.Duration
			for _, n := range s.sizes {
				ops := randomOps(rng, n, now)
				intake := make([]int, s.shards)
				for _, op := range ops {
					intake[store.ShardOf(op.KeyID, s.shards)]++
					if op.Wave {
						waves++
					}
				}
				for _, k := range intake {
					if k > 64 {
						bigIntakes++
					}
				}
				if n == 0 {
					emptyPumps++
				}
				for _, c := range p.round(t, ops) {
					if c.Err != nil {
						t.Fatalf("shape %+v: %v", s, c.Err)
					}
					now = max(now, c.Done)
				}
			}
		}
		if emptyPumps == 0 || bigIntakes == 0 || waves == 0 {
			t.Fatalf("shapes reached %d empty pumps, %d intakes over 64, %d wave members: the table no longer covers what it claims", emptyPumps, bigIntakes, waves)
		}
	})

	// The failure branches of a shard's service loop, on shard 0 of 3
	// while shards 1 and 2 serve the same pump unharmed.
	persistent := &deverr.Error{Op: deverr.OpWrite, LBA: 9, Kind: deverr.KindLatent}
	const shards = 3
	healthy := append(opsOn(keysOn(1, shards, 3), store.Put, 5, false), opsOn(keysOn(2, shards, 3), store.Get, 7, false)...)
	count := func(comps []store.Completion, pred func(store.Completion) bool) int {
		n := 0
		for _, c := range comps {
			if pred(c) {
				n++
			}
		}
		return n
	}
	unavailable := func(c store.Completion) bool { return store.IsUnavailable(c.Err) }
	transient := func(c store.Completion) bool { return c.Err != nil && deverr.IsTransient(c.Err) }
	failures := []struct {
		name string
		eng  *pureEngine
		ops  []store.Op // shard 0's part of the first pump
		// check sees the first pump's completions; the pair then runs a
		// second, all-healthy-engine pump of the same ops through round.
		check func(t *testing.T, comps []store.Completion, es store.ErrorStats)
	}{
		{
			name: "latched before a read wave",
			eng:  &pureEngine{fail: map[int]error{1: persistent}},
			ops: append(opsOn(keysOn(0, shards, 1), store.Put, 1, false),
				opsOn(keysOn(0, shards, 4), store.Get, 2, true)...),
			check: func(t *testing.T, comps []store.Completion, es store.ErrorStats) {
				if n := count(comps, unavailable); n != 5 || es.Unavailable != 4 {
					t.Fatalf("%d unavailable completions (want 5), stats %+v", n, es)
				}
			},
		},
		{
			name: "latched in the middle of a read wave",
			eng:  &pureEngine{fail: map[int]error{3: persistent}},
			ops:  opsOn(keysOn(0, shards, 5), store.Get, 2, true),
			check: func(t *testing.T, comps []store.Completion, es store.ErrorStats) {
				if n := count(comps, unavailable); n != 3 || es.Unavailable != 2 || es.Persistent != 1 {
					t.Fatalf("%d unavailable completions (want 3: the failing member and the two behind it), stats %+v", n, es)
				}
			},
		},
		{
			name: "transient errors exhaust the retry budget",
			eng:  &pureEngine{always: transientEIO()},
			ops:  opsOn(keysOn(0, shards, 30), store.Put, 3, false),
			check: func(t *testing.T, comps []store.Completion, es store.ErrorStats) {
				if n := count(comps, transient); n != 30 || es.Retries != 64 || count(comps, unavailable) != 0 {
					t.Fatalf("%d transient completions (want 30), stats %+v (want 64 retries, no latch)", n, es)
				}
			},
		},
		{
			name: "group commit sync fails persistently",
			eng:  &pureEngine{syncs: []error{persistent}},
			ops: append(opsOn(keysOn(0, shards, 6), store.Put, 3, false),
				opsOn(keysOn(0, shards, 2), store.Get, 4, false)...),
			check: func(t *testing.T, comps []store.Completion, es store.ErrorStats) {
				if n := count(comps, unavailable); n != 6 {
					t.Fatalf("%d unavailable completions, want the 6 writes of the failed group", n)
				}
			},
		},
		{
			name: "group commit sync never stops failing transiently",
			eng:  &pureEngine{syncs: repeatErr(transientEIO(), 100)},
			ops:  opsOn(keysOn(0, shards, 6), store.Delete, 3, false),
			check: func(t *testing.T, comps []store.Completion, es store.ErrorStats) {
				if n := count(comps, transient); n != 6 || es.Retries != 64 {
					t.Fatalf("%d transient completions (want 6), stats %+v (want 64 retries)", n, es)
				}
			},
		},
	}
	for _, tc := range failures {
		t.Run(tc.name, func(t *testing.T) {
			var scripted []*pureEngine
			p := newPumpPair(t, shards, func(i int) *pureEngine {
				if i != 0 {
					return &pureEngine{}
				}
				e := *tc.eng
				e.syncs = append([]error(nil), tc.eng.syncs...)
				scripted = append(scripted, &e)
				return &e
			})
			ops := append(append([]store.Op(nil), healthy[:3]...), tc.ops...)
			ops = append(ops, healthy[3:]...)
			comps := p.round(t, ops)
			if n := count(comps, func(c store.Completion) bool { return c.Err == nil }); n < len(healthy) {
				t.Fatalf("only %d of %d completions succeeded: the healthy shards' ops must", n, len(comps))
			}
			tc.check(t, comps, p.got.ErrorStats())
			// The next pump on the same stores, engines healed: whatever
			// the failed pump left behind (a latch, a spent budget) must
			// again complete every request exactly once.
			for _, e := range scripted {
				e.always, e.fail, e.syncs = nil, nil, nil
			}
			p.round(t, ops)
		})
	}
}

func repeatErr(err error, n int) []error {
	errs := make([]error, n)
	for i := range errs {
		errs[i] = err
	}
	return errs
}
