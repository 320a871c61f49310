package replica

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"ptsbench/internal/engine"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// stubEngine is a deterministic in-memory engine with a fixed per-op
// latency, so the replication ack arithmetic can be asserted exactly.
type stubEngine struct {
	lat    sim.Duration
	m      map[string][]byte
	stats  kv.EngineStats
	gcOpen int
	gcEnds int
	failed error
}

func newStub(lat sim.Duration) *stubEngine {
	return &stubEngine{lat: lat, m: map[string][]byte{}}
}

func (s *stubEngine) Put(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, error) {
	if s.failed != nil {
		return now, s.failed
	}
	s.stats.Puts++
	s.stats.UserBytesWritten += int64(len(key) + len(value))
	s.m[string(key)] = append([]byte(nil), value...)
	return now + s.lat, nil
}

func (s *stubEngine) Get(now sim.Duration, key []byte) (sim.Duration, []byte, bool, error) {
	if s.failed != nil {
		return now, nil, false, s.failed
	}
	s.stats.Gets++
	v, ok := s.m[string(key)]
	if !ok {
		return now + s.lat, nil, false, nil
	}
	s.stats.UserBytesRead += int64(len(key) + len(v))
	return now + s.lat, append([]byte(nil), v...), true, nil
}

func (s *stubEngine) Delete(now sim.Duration, key []byte) (sim.Duration, error) {
	if s.failed != nil {
		return now, s.failed
	}
	delete(s.m, string(key))
	return now + s.lat, nil
}

func (s *stubEngine) Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error) {
	if s.failed != nil {
		return now, nil, s.failed
	}
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		if bytes.Compare([]byte(k), start) >= 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	ents := make([]kv.Entry, 0, len(keys))
	for _, k := range keys {
		v := s.m[k]
		ents = append(ents, kv.Entry{
			Key:      []byte(k),
			Value:    append([]byte(nil), v...),
			ValueLen: len(v),
		})
	}
	return now + s.lat, ents, nil
}

func (s *stubEngine) FlushAll(now sim.Duration) (sim.Duration, error) { return now + s.lat, nil }
func (s *stubEngine) Quiesce(now sim.Duration) sim.Duration           { return now }
func (s *stubEngine) Close(now sim.Duration) (sim.Duration, error)    { return now, nil }
func (s *stubEngine) Stats() kv.EngineStats                           { return s.stats }

func (s *stubEngine) DiskUsageBytes() int64 {
	var t int64
	for k, v := range s.m {
		t += int64(len(k) + len(v))
	}
	return t
}

func (s *stubEngine) BeginGroupCommit() { s.gcOpen++ }

func (s *stubEngine) EndGroupCommit(now sim.Duration) (sim.Duration, error) {
	s.gcOpen--
	s.gcEnds++
	return now + s.lat, nil
}

var (
	_ engine.Engine         = (*stubEngine)(nil)
	_ engine.GroupCommitter = (*stubEngine)(nil)
)

func mustGroup(t *testing.T, mode Mode, lats ...sim.Duration) (*Group, []*stubEngine) {
	t.Helper()
	stubs := make([]*stubEngine, len(lats))
	members := make([]Member, len(lats))
	for i, lat := range lats {
		stubs[i] = newStub(lat)
		members[i] = Member{Engine: stubs[i]}
	}
	g, err := New(mode, members)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return g, stubs
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{"": Chain, "chain": Chain, "quorum": Quorum} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("paxos"); err == nil {
		t.Errorf("ParseMode(paxos): want error")
	}
	if Chain.String() != "chain" || Quorum.String() != "quorum" {
		t.Errorf("mode String: got %q, %q", Chain.String(), Quorum.String())
	}
}

func TestChainPutAckAtTail(t *testing.T) {
	g, stubs := mustGroup(t, Chain, 10, 20, 30)
	done, err := g.Put(0, kv.EncodeKey(1), []byte("v"), 0)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Head: 0→10; middle starts when the head is done: 10→30; tail: 30→60.
	if done != 60 {
		t.Errorf("chain ack = %v, want 60", done)
	}
	for i, want := range []sim.Duration{10, 30, 60} {
		if g.reps[i].clock != want {
			t.Errorf("replica %d clock = %v, want %v", i, g.reps[i].clock, want)
		}
	}
	for i, s := range stubs {
		if _, ok := s.m[string(kv.EncodeKey(1))]; !ok {
			t.Errorf("replica %d missing the write", i)
		}
	}
}

func TestQuorumPutAckAtMajority(t *testing.T) {
	g, _ := mustGroup(t, Quorum, 10, 20, 30)
	done, err := g.Put(0, kv.EncodeKey(1), []byte("v"), 0)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Replicas finish at 10, 20, 30 in parallel; majority of 3 is 2, so
	// the write acks at the second completion.
	if done != 20 {
		t.Errorf("quorum ack = %v, want 20", done)
	}
}

func TestQuorumLosesWritesBelowMajority(t *testing.T) {
	g, _ := mustGroup(t, Quorum, 10, 10, 10)
	if err := g.Kill(0); err != nil {
		t.Fatalf("Kill(0): %v", err)
	}
	if _, err := g.Put(0, kv.EncodeKey(1), []byte("v"), 0); err != nil {
		t.Fatalf("Put with 2/3 live: %v", err)
	}
	if err := g.Kill(1); err != nil {
		t.Fatalf("Kill(1): %v", err)
	}
	if _, err := g.Put(0, kv.EncodeKey(2), []byte("v"), 0); err == nil {
		t.Errorf("Put with 1/3 live: want quorum-lost error")
	}
	if _, _, _, err := g.Get(0, kv.EncodeKey(1)); err == nil {
		t.Errorf("Get with 1/3 live: want quorum-lost error")
	}
}

func TestChainServesAtTail(t *testing.T) {
	g, stubs := mustGroup(t, Chain, 10, 10, 10)
	key := kv.EncodeKey(7)
	if _, err := g.Put(0, key, []byte("good"), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Corrupt everything but the tail: a chain read must not see it.
	stubs[0].m[string(key)] = []byte("BAD")
	stubs[1].m[string(key)] = []byte("BAD")
	_, v, found, err := g.Get(100, key)
	if err != nil || !found || string(v) != "good" {
		t.Errorf("chain Get = %q, %v, %v; want tail's value", v, found, err)
	}
	// Kill the tail: the chain serves at the new last live replica.
	if err := g.Kill(2); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	_, v, _, err = g.Get(200, key)
	if err != nil || string(v) != "BAD" {
		t.Errorf("degraded chain Get = %q, %v; want replica 1's value", v, err)
	}
}

func TestQuorumReadRepair(t *testing.T) {
	g, stubs := mustGroup(t, Quorum, 10, 10, 10)
	key := kv.EncodeKey(9)
	if _, err := g.Put(0, key, []byte("good"), 0); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Diverge replica 2 behind the group's back (a revived replica that
	// lost this write while down).
	stubs[2].m[string(key)] = []byte("stale")
	_, v, found, err := g.Get(100, key)
	if err != nil || !found || string(v) != "good" {
		t.Fatalf("Get = %q, %v, %v; want the consistent value", v, found, err)
	}
	if got := string(stubs[2].m[string(key)]); got != "good" {
		t.Errorf("read-repair left replica 2 at %q, want \"good\"", got)
	}
	// A key the authority does not hold is deleted from divergents.
	key2 := kv.EncodeKey(10)
	stubs[1].m[string(key2)] = []byte("ghost")
	_, _, found, err = g.Get(200, key2)
	if err != nil || found {
		t.Fatalf("Get(ghost) = %v, %v; want absent", found, err)
	}
	if _, ok := stubs[1].m[string(key2)]; ok {
		t.Errorf("read-repair left the ghost key on replica 1")
	}
}

func TestLogicalStats(t *testing.T) {
	for _, mode := range []Mode{Chain, Quorum} {
		g, _ := mustGroup(t, mode, 10, 10, 10)
		key := kv.EncodeKey(1)
		if _, err := g.Put(0, key, []byte("hello"), 0); err != nil {
			t.Fatalf("%v Put: %v", mode, err)
		}
		if _, _, _, err := g.Get(20, key); err != nil {
			t.Fatalf("%v Get: %v", mode, err)
		}
		if _, _, _, err := g.Get(40, key); err != nil {
			t.Fatalf("%v Get: %v", mode, err)
		}
		st := g.Stats()
		if st.Puts != 1 || st.Gets != 2 {
			t.Errorf("%v stats = %d puts, %d gets; want 1, 2 (logical, not ×R)", mode, st.Puts, st.Gets)
		}
		if want := int64(kv.KeySize + 5); st.UserBytesWritten != want {
			t.Errorf("%v UserBytesWritten = %d, want %d", mode, st.UserBytesWritten, want)
		}
		// Space is honestly replicated: 3× one replica's footprint.
		one := int64(kv.KeySize + 5)
		if got := g.DiskUsageBytes(); got != 3*one {
			t.Errorf("%v DiskUsageBytes = %d, want %d", mode, got, 3*one)
		}
	}
}

func TestKillReviveReconcile(t *testing.T) {
	for _, mode := range []Mode{Chain, Quorum} {
		g, stubs := mustGroup(t, mode, 10, 10, 10)
		for id := uint64(0); id < 20; id++ {
			if _, err := g.Put(0, kv.EncodeKey(id), []byte(fmt.Sprintf("v%d", id)), 0); err != nil {
				t.Fatalf("%v Put: %v", mode, err)
			}
		}
		if err := g.Kill(1); err != nil {
			t.Fatalf("Kill: %v", err)
		}
		if err := g.Kill(1); err == nil {
			t.Errorf("double Kill: want error")
		}
		// Degraded writes: deletes and overwrites the dead replica misses.
		if _, err := g.Delete(1000, kv.EncodeKey(3)); err != nil {
			t.Fatalf("%v Delete: %v", mode, err)
		}
		if _, err := g.Put(1000, kv.EncodeKey(5), []byte("new"), 0); err != nil {
			t.Fatalf("%v Put: %v", mode, err)
		}
		if _, err := g.Put(1000, kv.EncodeKey(99), []byte("fresh"), 0); err != nil {
			t.Fatalf("%v Put: %v", mode, err)
		}
		// Revive with an empty engine (worst case: it lost everything).
		blank := newStub(10)
		if err := g.Revive(1, Member{Engine: blank, Start: 2000}); err != nil {
			t.Fatalf("Revive: %v", err)
		}
		if !g.reps[1].stale {
			t.Fatalf("revived replica is not stale")
		}
		// Stale replicas receive new writes but never serve.
		if _, err := g.Put(2000, kv.EncodeKey(100), []byte("post"), 0); err != nil {
			t.Fatalf("%v Put post-revive: %v", mode, err)
		}
		if _, ok := blank.m[string(kv.EncodeKey(100))]; !ok {
			t.Errorf("%v: stale replica missed a new write", mode)
		}
		if _, err := g.Reconcile(3000); err != nil {
			t.Fatalf("%v Reconcile: %v", mode, err)
		}
		if g.reps[1].stale {
			t.Errorf("%v: replica still stale after Reconcile", mode)
		}
		// Every replica must now be byte-comparable.
		_, want, err := stubs[0].Scan(4000, nil, 0)
		if err != nil {
			t.Fatalf("scan: %v", err)
		}
		for i := 1; i < 3; i++ {
			_, got, err := g.Engine(i).(*stubEngine).Scan(4000, nil, 0)
			if err != nil {
				t.Fatalf("scan replica %d: %v", i, err)
			}
			if !sameEntries(want, got) {
				t.Errorf("%v: replica %d diverges after Reconcile", mode, i)
			}
		}
		// And the group must still serve the exact state.
		_, v, found, err := g.Get(5000, kv.EncodeKey(5))
		if err != nil || !found || string(v) != "new" {
			t.Errorf("%v Get(5) = %q, %v, %v", mode, v, found, err)
		}
		_, _, found, err = g.Get(5000, kv.EncodeKey(3))
		if err != nil || found {
			t.Errorf("%v Get(3): deleted key resurfaced (found=%v, err=%v)", mode, found, err)
		}
	}
}

func sameEntries(a, b []kv.Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Key, b[i].Key) || !bytes.Equal(a[i].Value, b[i].Value) || a[i].ValueLen != b[i].ValueLen {
			return false
		}
	}
	return true
}

func TestScanServesConsistentReplica(t *testing.T) {
	g, stubs := mustGroup(t, Chain, 10, 10, 10)
	for id := uint64(0); id < 5; id++ {
		if _, err := g.Put(0, kv.EncodeKey(id), []byte("v"), 0); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// A stale replica must not serve scans.
	if err := g.Kill(2); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if err := g.Revive(2, Member{Engine: newStub(10), Start: 100}); err != nil {
		t.Fatalf("Revive: %v", err)
	}
	_, ents, err := g.Scan(200, kv.EncodeKey(0), 100)
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(ents) != 5 {
		t.Errorf("Scan over a group with a stale tail returned %d entries, want 5", len(ents))
	}
	_ = stubs
}

func TestGroupCommitForwarding(t *testing.T) {
	g, stubs := mustGroup(t, Chain, 10, 20, 30)
	g.BeginGroupCommit()
	for _, s := range stubs {
		if s.gcOpen != 1 {
			t.Fatalf("BeginGroupCommit not forwarded")
		}
	}
	done, err := g.EndGroupCommit(100)
	if err != nil {
		t.Fatalf("EndGroupCommit: %v", err)
	}
	// Chain ack: the tail's sync. Replica clocks start at 0, so each
	// syncs at 100+lat; the tail finishes at 130.
	if done != 130 {
		t.Errorf("chain EndGroupCommit = %v, want 130", done)
	}
	gq, _ := mustGroup(t, Quorum, 10, 20, 30)
	gq.BeginGroupCommit()
	done, err = gq.EndGroupCommit(100)
	if err != nil {
		t.Fatalf("quorum EndGroupCommit: %v", err)
	}
	if done != 120 {
		t.Errorf("quorum EndGroupCommit = %v, want 120 (majority-th sync)", done)
	}
}

func TestDeterministicAcks(t *testing.T) {
	run := func(mode Mode) []sim.Duration {
		g, _ := mustGroup(t, mode, 7, 13, 29)
		var acks []sim.Duration
		now := sim.Duration(0)
		for id := uint64(0); id < 50; id++ {
			done, err := g.Put(now, kv.EncodeKey(id%17), []byte("v"), 0)
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			acks = append(acks, done)
			d2, _, _, err := g.Get(done, kv.EncodeKey(id%17))
			if err != nil {
				t.Fatalf("Get: %v", err)
			}
			acks = append(acks, d2)
			now = d2
		}
		return acks
	}
	for _, mode := range []Mode{Chain, Quorum} {
		a, b := run(mode), run(mode)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: ack %d differs between identical runs: %v vs %v", mode, i, a[i], b[i])
			}
		}
	}
}

func TestNewRejectsBadGroups(t *testing.T) {
	if _, err := New(Chain, nil); err == nil {
		t.Errorf("New with no members: want error")
	}
	if _, err := New(Chain, []Member{{}}); err == nil {
		t.Errorf("New with nil engine: want error")
	}
	if _, err := New(Mode(9), []Member{{Engine: newStub(1)}}); err == nil {
		t.Errorf("New with bad mode: want error")
	}
	g, _ := mustGroup(t, Chain, 1)
	if err := g.Kill(5); err == nil {
		t.Errorf("Kill out of range: want error")
	}
	if err := g.Revive(0, Member{Engine: newStub(1)}); err == nil {
		t.Errorf("Revive of a live replica: want error")
	}
}

// TestKthMatchesSort pins the quorum ack rule's order statistic to the
// obvious definition — sort, take element k-1 — over every k of every
// sequence of 1–5 durations drawn from as many distinct values, which
// covers every permutation and every pattern of duplicates.
func TestKthMatchesSort(t *testing.T) {
	for n := 1; n <= 5; n++ {
		ds := make([]sim.Duration, n)
		total := 1
		for i := 0; i < n; i++ {
			total *= n
		}
		for code := 0; code < total; code++ {
			for i, c := 0, code; i < n; i, c = i+1, c/n {
				ds[i] = sim.Duration(10 * (c % n))
			}
			want := append([]sim.Duration(nil), ds...)
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			for k := 1; k <= n; k++ {
				scratch := append([]sim.Duration(nil), ds...)
				if got := kth(scratch, k); got != want[k-1] {
					t.Fatalf("kth(%v, %d) = %d, want %d", ds, k, got, want[k-1])
				}
			}
		}
	}
}

// TestNextKey pins the reconcile pager's continuation key: the key one
// above k, carrying into the first word, and no next key after the
// all-0xFF key, which the pager takes as the end of the key space
// instead of scanning from a key of another width.
func TestNextKey(t *testing.T) {
	lowFull := append([]byte{0, 0, 0, 0, 0, 0, 0, 4}, bytes.Repeat([]byte{0xFF}, 8)...)
	for _, c := range []struct{ k, want []byte }{
		{kv.EncodeKey(5), kv.EncodeKey(6)},
		{kv.EncodeKey(255), kv.EncodeKey(256)},
		{lowFull, append([]byte{0, 0, 0, 0, 0, 0, 0, 5}, make([]byte, 8)...)},
	} {
		if got, last := nextKey(c.k); last || !bytes.Equal(got, c.want) {
			t.Fatalf("nextKey(%x) = %x, last %v; want %x", c.k, got, last, c.want)
		}
	}
	if got, last := nextKey(bytes.Repeat([]byte{0xFF}, kv.KeySize)); !last || got != nil {
		t.Fatalf("nextKey(all 0xFF) = %x, last %v; want none", got, last)
	}

	// A full page ending at the all-0xFF key: the pager returns every
	// key and stops, scanning only from kv.KeySize keys.
	stub := &widthStub{stubEngine: newStub(0)}
	for i := 1; i < reconcilePage; i++ {
		stub.m[string(kv.EncodeKey(uint64(i)))] = []byte{1}
	}
	stub.m[string(bytes.Repeat([]byte{0xFF}, kv.KeySize))] = []byte{2}
	p := newPager(&rep{eng: stub}, make([]byte, kv.KeySize))
	n := 0
	for {
		_, ok, err := p.peek(0)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		p.advance()
		n++
	}
	if n != reconcilePage || stub.scans != 1 {
		t.Fatalf("paged %d entries in %d scans, want %d in 1", n, stub.scans, reconcilePage)
	}
}

// widthStub is a stubEngine whose Scan refuses a start of another width
// than kv.KeySize, as the engines do, and counts its scans.
type widthStub struct {
	*stubEngine
	scans int
}

func (s *widthStub) Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error) {
	if err := kv.CheckKey(start); err != nil {
		return now, nil, err
	}
	s.scans++
	return s.stubEngine.Scan(now, start, limit)
}
