// Package kvtest is the shared engine-conformance suite: one set of
// correctness tests that every storage engine (LSM, B+Tree, Bε-tree)
// must pass identically. Each engine's test package supplies a Factory
// that opens a fresh engine on its own simulated stack; Run then drives
// put/get/overwrite/delete semantics, scan ordering, deterministic
// value verification (kv.SynthValue), recovery after a checkpoint, and
// deterministic replay through the kv.Engine surface.
//
// Keeping the suite here — instead of copy-pasting the same tests into
// each engine package — pins the ENGINE CONTRACT, so a new tree
// structure starts from the full behavioural spec of the existing ones.
package kvtest

import (
	"bytes"
	"fmt"
	"testing"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// Stack is one freshly opened engine on its own device — simulated
// (blockdev.Device) or a real backing file (filedev.Dev); the suite
// only needs the shared Host instrumentation surface.
type Stack struct {
	Engine kv.Engine
	Dev    blockdev.Host
	// Reopen recovers the engine from its on-device state (checkpoint /
	// manifest plus journal replay). Only called on content-mode stacks,
	// after the original engine has quiesced.
	Reopen func(now sim.Duration) (kv.Engine, sim.Duration, error)
}

// Factory opens a fresh engine. content selects content mode (values
// materialized on the device); the suite uses accounting mode only for
// the reference-map and determinism tests.
type Factory func(t *testing.T, content bool) *Stack

// audit runs the structural self-check of an engine that has one (the
// tree engines audit the leaf cache their shared core keeps), so every
// scenario ends by checking structure, not just contents.
func audit(t *testing.T, e kv.Engine) {
	t.Helper()
	if c, ok := e.(interface{ Check() error }); ok {
		if err := c.Check(); err != nil {
			t.Errorf("structural check: %v", err)
		}
	}
}

// Run executes the conformance suite against the factory. Every engine a
// scenario opens is audited fresh, and again when the scenario ends.
func Run(t *testing.T, factory Factory) {
	open := func(t *testing.T, content bool) *Stack {
		s := factory(t, content)
		audit(t, s.Engine)
		t.Cleanup(func() { audit(t, s.Engine) })
		return s
	}
	t.Run("PutGetBasic", func(t *testing.T) { testPutGetBasic(t, open) })
	t.Run("OverwriteLatestWins", func(t *testing.T) { testOverwrite(t, open) })
	t.Run("DeleteHidesKey", func(t *testing.T) { testDelete(t, open) })
	t.Run("ScanOrdering", func(t *testing.T) { testScanOrdering(t, open) })
	t.Run("SynthValues", func(t *testing.T) { testSynthValues(t, open) })
	t.Run("ReferenceMap", func(t *testing.T) { testReferenceMap(t, open) })
	t.Run("RecoveryAfterCheckpoint", func(t *testing.T) { testRecovery(t, open) })
	t.Run("DeterministicReplay", func(t *testing.T) { testDeterministicReplay(t, open) })
}

func testPutGetBasic(t *testing.T, open Factory) {
	s := open(t, true)
	e := s.Engine
	var now sim.Duration
	var err error
	now, err = e.Put(now, kv.EncodeKey(1), []byte("hello"), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, v, found, err := e.Get(now, kv.EncodeKey(1))
	if err != nil || !found || string(v) != "hello" {
		t.Fatalf("Get: %q %v %v", v, found, err)
	}
	_, _, found, err = e.Get(now, kv.EncodeKey(2))
	if err != nil || found {
		t.Fatalf("missing key visible: %v %v", found, err)
	}
	st := e.Stats()
	if st.Puts != 1 || st.Gets != 2 || st.UserBytesWritten != int64(kv.KeySize+5) {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func testOverwrite(t *testing.T, open Factory) {
	s := open(t, true)
	e := s.Engine
	var now sim.Duration
	var err error
	// Three generations of the same keys, with a full flush between
	// generations so every persistence layer (memtable/buffer AND
	// on-disk structure) holds stale versions.
	for gen := 0; gen < 3; gen++ {
		for i := uint64(0); i < 50; i++ {
			now, err = e.Put(now, kv.EncodeKey(i), []byte{byte(gen), byte(i)}, 0)
			if err != nil {
				t.Fatal(err)
			}
		}
		now, err = e.FlushAll(now)
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 50; i++ {
		_, got, found, err := e.Get(now, kv.EncodeKey(i))
		if err != nil || !found {
			t.Fatalf("key %d: %v %v", i, found, err)
		}
		if got[0] != 2 {
			t.Fatalf("key %d returned generation %d, want 2", i, got[0])
		}
	}
}

func testDelete(t *testing.T, open Factory) {
	s := open(t, true)
	e := s.Engine
	var now sim.Duration
	var err error
	now, err = e.Put(now, kv.EncodeKey(1), []byte("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	now, err = e.FlushAll(now) // key 1 reaches disk
	if err != nil {
		t.Fatal(err)
	}
	now, err = e.Delete(now, kv.EncodeKey(1))
	if err != nil {
		t.Fatal(err)
	}
	_, _, found, err := e.Get(now, kv.EncodeKey(1))
	if err != nil || found {
		t.Fatalf("deleted key visible: %v %v", found, err)
	}
	// Still deleted after the tombstone reaches disk.
	now, err = e.FlushAll(now)
	if err != nil {
		t.Fatal(err)
	}
	_, _, found, err = e.Get(now, kv.EncodeKey(1))
	if err != nil || found {
		t.Fatalf("deleted key visible after flush: %v %v", found, err)
	}
}

func testScanOrdering(t *testing.T, open Factory) {
	s := open(t, true)
	e := s.Engine
	ref := NewModel()
	var now sim.Duration
	var err error
	put := func(id uint64, v []byte) {
		now, err = e.Put(now, kv.EncodeKey(id), v, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref.Put(id, v)
	}
	del := func(id uint64) {
		now, err = e.Delete(now, kv.EncodeKey(id))
		if err != nil {
			t.Fatal(err)
		}
		ref.Delete(id)
	}
	// Interleave inserts (out of order), overwrites and deletes, with a
	// flush in the middle so part of the data is on disk and part in the
	// engine's write path (memtable / leaf cache / interior buffers).
	for i := uint64(0); i < 300; i += 2 {
		put(i, []byte{1, byte(i)})
	}
	now, err = e.FlushAll(now)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i < 300; i += 2 {
		put(i, []byte{2, byte(i)})
	}
	for i := uint64(0); i < 300; i += 7 {
		del(i)
	}
	for i := uint64(4); i < 300; i += 10 {
		put(i, []byte{3, byte(i)})
	}

	checkScan := func(start uint64, limit int) {
		t.Helper()
		_, got, err := e.Scan(now, kv.EncodeKey(start), limit)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for _, id := range ref.IDs() {
			if ref.MustContain(id) && id >= start && len(want) < limit {
				want = append(want, id)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("scan(%d, %d): %d entries, want %d", start, limit, len(got), len(want))
		}
		for i, entry := range got {
			id, err := kv.DecodeKey(entry.Key)
			if err != nil {
				t.Fatal(err)
			}
			if id != want[i] {
				t.Fatalf("scan(%d, %d) position %d: key %d, want %d", start, limit, i, id, want[i])
			}
			if i > 0 && kv.CompareKeys(got[i-1].Key, entry.Key) >= 0 {
				t.Fatalf("scan out of order at %d", i)
			}
			refVal, ok := ref.Value(id)
			if !ok {
				t.Fatalf("scan surfaced key %d with no exact model value", id)
			}
			if !bytes.Equal(entry.Value, refVal) {
				t.Fatalf("scan key %d value %v, want %v", id, entry.Value, refVal)
			}
			if entry.ValueLen != len(refVal) {
				t.Fatalf("scan key %d ValueLen %d, want %d", id, entry.ValueLen, len(refVal))
			}
		}
	}
	checkScan(0, 1000) // everything
	checkScan(51, 40)  // interior window
	checkScan(295, 50) // tail
	checkScan(500, 10) // beyond the end
}

func testSynthValues(t *testing.T, open Factory) {
	s := open(t, true)
	e := s.Engine
	const keys, valLen = 400, 64
	gens := map[uint64]uint64{}
	var now sim.Duration
	var err error
	val := make([]byte, valLen)
	write := func(id, gen uint64) {
		k := kv.EncodeKey(id)
		kv.SynthValue(val, k, gen)
		now, err = e.Put(now, k, val, 0)
		if err != nil {
			t.Fatal(err)
		}
		gens[id] = gen
	}
	for id := uint64(0); id < keys; id++ {
		write(id, 1)
	}
	now, err = e.FlushAll(now)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite roughly half with a newer generation.
	for id := uint64(0); id < keys; id += 2 {
		write(id, 2)
	}
	want := make([]byte, valLen)
	for id := uint64(0); id < keys; id++ {
		k := kv.EncodeKey(id)
		var got []byte
		var found bool
		now, got, found, err = e.Get(now, k)
		if err != nil || !found {
			t.Fatalf("key %d: %v %v", id, found, err)
		}
		kv.SynthValue(want, k, gens[id])
		if !bytes.Equal(got, want) {
			t.Fatalf("key %d: value does not match SynthValue(gen %d)", id, gens[id])
		}
	}
}

func testReferenceMap(t *testing.T, open Factory) {
	s := open(t, false) // accounting mode: presence/absence only
	e := s.Engine
	rng := sim.NewRNG(77)
	ref := map[uint64]bool{}
	var now sim.Duration
	var err error
	for i := 0; i < 3000; i++ {
		id := rng.Uint64n(500)
		if rng.Uint64n(10) < 2 {
			now, err = e.Delete(now, kv.EncodeKey(id))
			ref[id] = false
		} else {
			now, err = e.Put(now, kv.EncodeKey(id), nil, 200)
			ref[id] = true
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	now, err = e.FlushAll(now)
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range ref {
		_, _, found, err := e.Get(now, kv.EncodeKey(id))
		if err != nil {
			t.Fatal(err)
		}
		if found != want {
			t.Fatalf("key %d: found=%v, want %v", id, found, want)
		}
	}
}

func testRecovery(t *testing.T, open Factory) {
	s := open(t, true)
	if s.Reopen == nil {
		t.Fatal("conformance requires a Reopen (recovery) path")
	}
	e := s.Engine
	var now sim.Duration
	var err error
	for id := uint64(0); id < 300; id++ {
		now, err = e.Put(now, kv.EncodeKey(id), []byte{1}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	now, err = e.FlushAll(now) // checkpoint / full flush
	if err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint mutations live only in the journal.
	for id := uint64(0); id < 60; id++ {
		now, err = e.Put(now, kv.EncodeKey(id), []byte{2}, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	for id := uint64(60); id < 90; id++ {
		now, err = e.Delete(now, kv.EncodeKey(id))
		if err != nil {
			t.Fatal(err)
		}
	}
	now = e.Quiesce(now)
	re, rnow, err := s.Reopen(now)
	if err != nil {
		t.Fatal(err)
	}
	if rnow <= now {
		t.Fatal("recovery should advance virtual time (it reads the device)")
	}
	for id := uint64(0); id < 300; id++ {
		_, got, found, err := re.Get(rnow, kv.EncodeKey(id))
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case id < 60:
			if !found || got[0] != 2 {
				t.Fatalf("key %d: want journal value 2, got %v found=%v", id, got, found)
			}
		case id < 90:
			if found {
				t.Fatalf("key %d: deleted before crash but visible", id)
			}
		default:
			if !found || got[0] != 1 {
				t.Fatalf("key %d: want checkpointed value 1, got %v found=%v", id, got, found)
			}
		}
	}
	// The recovered engine accepts writes and persists them.
	rnow, err = re.Put(rnow, kv.EncodeKey(1000), []byte{9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := re.FlushAll(rnow); err != nil {
		t.Fatal(err)
	}
	_, got, found, err := re.Get(rnow, kv.EncodeKey(1000))
	if err != nil || !found || got[0] != 9 {
		t.Fatalf("post-recovery write lost: %v %v %v", got, found, err)
	}
	audit(t, re)
}

// replayScript runs a fixed mixed workload and returns a fingerprint of
// everything observable: final virtual time, engine stats and device
// counters.
func replayScript(t *testing.T, s *Stack) string {
	e := s.Engine
	rng := sim.NewRNG(123)
	var now sim.Duration
	var err error
	key := make([]byte, kv.KeySize)
	for i := 0; i < 4000; i++ {
		id := rng.Uint64n(800)
		kv.AppendKey(key, id)
		switch {
		case rng.Uint64n(10) < 2:
			now, _, _, err = e.Get(now, key)
		case rng.Uint64n(20) == 0:
			now, err = e.Delete(now, key)
		default:
			now, err = e.Put(now, key, nil, 256)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	end, err := e.FlushAll(now)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d %+v %+v", end, e.Stats(), s.Dev.Counters())
}

func testDeterministicReplay(t *testing.T, open Factory) {
	a := replayScript(t, open(t, false))
	b := replayScript(t, open(t, false))
	if a != b {
		t.Fatalf("identical workloads diverged:\n%s\n%s", a, b)
	}
}
