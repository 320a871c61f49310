package main

import (
	"bufio"
	"fmt"
	"os"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/engine"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/store"
)

// The tracer interposes timing shims at the two interface seams the
// stack already has — engine.Engine under store.Stack / replica.Member,
// and blockdev.Dev under extfs.Mount — and times the driver's own calls
// into the store. Every call is counted and its host and virtual time
// summed; a deterministic 1-in-sampleEvery sample of ops keeps full
// spans. All of it lives in the benchmark's files: spans inside the
// program (extfs, wal, compaction steps) are a later change.
//
// Concurrency: a shard's shims are only ever called from that shard's
// worker (or, on 1-shard stores, the driver), and the driver reads them
// only between pumps, after the store's own barrier. Nothing is shared
// between shards, so the tracer needs no locks.

const (
	sampleEvery = 64
	// groupLevel is wrapEngine's replica index for a replica group.
	groupLevel = -1
)

// callAgg aggregates every call of one kind through one shim.
type callAgg struct {
	calls, hostNs, virtNs, pages int64
}

func (a *callAgg) add(b callAgg) {
	a.calls += b.calls
	a.hostNs += b.hostNs
	a.virtNs += b.virtNs
	a.pages += b.pages
}

// span is one sampled call: name, host start and end (ns since the
// measured phase began), the span that caused it, and the op they share.
type span struct {
	name           string
	id, parent, op uint64
	shard, replica int
	t0, t1         int64
	v0, v1         sim.Duration
}

type tracer struct {
	base       time.Time
	replicated bool
	shards     []*shardTrace
	measuring  bool

	submitNs  int64 // wall inside Store.Submit
	pumpNs    int64 // wall inside Store.Pump
	slowestNs int64 // Σ over pumps of the slowest shard's top-level busy time
	pumpID    uint64
	pumps     []span
}

func newTracer(replicated bool) *tracer {
	return &tracer{base: time.Now(), replicated: replicated}
}

func (t *tracer) clock() int64 { return int64(time.Since(t.base)) }

func (t *tracer) shard(i int) *shardTrace {
	for len(t.shards) <= i {
		t.shards = append(t.shards, &shardTrace{shard: len(t.shards), tr: t})
	}
	return t.shards[i]
}

// startMeasure zeroes every aggregate so that they cover the measured
// phase only; the device-call logs keep their set-up prefix, which the
// flash replay needs to rebuild the device state.
func (t *tracer) startMeasure() {
	for _, sh := range t.shards {
		for _, e := range sh.engs {
			e.put, e.get, e.other, e.putHist = callAgg{}, callAgg{}, callAgg{}, fineHist{}
		}
		for _, d := range sh.devs {
			d.write, d.read, d.discard, d.syncs = callAgg{}, callAgg{}, callAgg{}, 0
			d.measFrom = d.log.n
		}
		sh.pumpBusy = 0
	}
	t.submitNs, t.pumpNs, t.slowestNs = 0, 0, 0
	t.base = time.Now()
	t.measuring = true
}

// stopMeasure ends the measured slice of the device logs. The aggregates
// keep counting, so the ledger is read before the post-run scan.
func (t *tracer) stopMeasure() {
	t.measuring = false
	for _, sh := range t.shards {
		for _, d := range sh.devs {
			d.measTo = d.log.n
		}
	}
}

func (t *tracer) beginPump() int64 {
	t.pumpID++
	return t.clock()
}

func (t *tracer) endPump(t0 int64) {
	t1 := t.clock()
	t.pumpNs += t1 - t0
	var slowest int64
	sampled := false
	for _, sh := range t.shards {
		slowest = max(slowest, sh.pumpBusy)
		sampled = sampled || sh.sampledPump
		sh.pumpBusy, sh.sampledPump = 0, false
	}
	t.slowestNs += slowest
	if sampled {
		t.pumps = append(t.pumps, span{name: "store.Pump", id: t.pumpID, shard: -1, replica: -1, t0: t0, t1: t1})
	}
}

// shardTrace is everything one shard's worker goroutine writes.
type shardTrace struct {
	shard int
	tr    *tracer
	engs  []*engShim
	devs  []*devShim

	calls       uint64   // top-level ops so far: the op id
	sampling    bool     // inside a sampled op
	open        []uint64 // sampled spans in flight, innermost last
	nextID      uint64
	spans       []span
	pumpBusy    int64 // host ns inside the top-level shim this pump
	sampledPump bool
}

// push opens a sampled span and returns its id (unique across shards:
// pump spans own the ids below 1<<32).
func (sh *shardTrace) push() uint64 {
	sh.nextID++
	id := uint64(sh.shard+1)<<32 | sh.nextID
	sh.open = append(sh.open, id)
	return id
}

func (sh *shardTrace) pop(s span) {
	sh.open = sh.open[:len(sh.open)-1]
	s.parent = sh.tr.pumpID
	if n := len(sh.open); n > 0 {
		s.parent = sh.open[n-1]
	}
	s.op, s.shard = sh.calls, sh.shard
	sh.spans = append(sh.spans, s)
}

// engShim times every call through one engine.Engine seam. It always
// carries the store's Deleter and Scanner surfaces (every engine and the
// replica group implement both); the wrapper types below add
// GroupCommitter and Failover only when the wrapped value has them,
// because store and replica branch on those assertions.
type engShim struct {
	inner   engine.Engine
	del     store.Deleter
	scan    store.Scanner
	gc      engine.GroupCommitter
	fo      store.Failover
	tr      *tracer
	sh      *shardTrace
	top     bool // directly under store.Stack
	leaf    bool // a tree engine, not a replica group
	replica int

	put, get, other callAgg
	putHist         fineHist // host ns per Put (background steps land inside one)
}

type engShimGC struct{ *engShim }
type engShimFO struct{ engShimGC }

// wrapEngine interposes a shim over eng for replica rep of shard i
// (groupLevel for the shard's replica group).
func (t *tracer) wrapEngine(eng engine.Engine, i, rep int) (engine.Engine, error) {
	sh := t.shard(i)
	e := &engShim{inner: eng, tr: t, sh: sh, replica: rep,
		top: rep == groupLevel || !t.replicated, leaf: rep != groupLevel}
	var ok bool
	if e.del, ok = eng.(store.Deleter); !ok {
		return nil, fmt.Errorf("trace: %T has no Delete", eng)
	}
	if e.scan, ok = eng.(store.Scanner); !ok {
		return nil, fmt.Errorf("trace: %T has no Scan", eng)
	}
	e.gc, _ = eng.(engine.GroupCommitter)
	e.fo, _ = eng.(store.Failover)
	sh.engs = append(sh.engs, e)
	switch {
	case e.fo != nil && e.gc == nil:
		return nil, fmt.Errorf("trace: %T has Failover without GroupCommitter: no shim forwards exactly that", eng)
	case e.fo != nil:
		return engShimFO{engShimGC{e}}, nil
	case e.gc != nil:
		return engShimGC{e}, nil
	}
	return e, nil
}

func (e *engShim) name(method string) string {
	if e.leaf {
		return "engine." + method
	}
	return "replica." + method
}

// enter starts timing one call. op marks a user operation (Put, Get,
// Delete): top-level ops are numbered, and every sampleEvery-th is
// sampled together with everything it causes below.
func (e *engShim) enter(op bool) (t0 int64, id uint64) {
	sh := e.sh
	if op && e.top {
		sh.calls++
		if e.tr.measuring && sh.calls%sampleEvery == 0 {
			sh.sampling, sh.sampledPump = true, true
		}
	}
	if sh.sampling {
		id = sh.push()
	}
	return e.tr.clock(), id
}

func (e *engShim) exit(a *callAgg, method string, t0 int64, id uint64, v0, v1 sim.Duration) int64 {
	t1 := e.tr.clock()
	a.calls++
	a.hostNs += t1 - t0
	a.virtNs += int64(v1 - v0)
	if e.top {
		e.sh.pumpBusy += t1 - t0
	}
	if id != 0 {
		e.sh.pop(span{name: e.name(method), id: id, replica: e.replica, t0: t0, t1: t1, v0: v0, v1: v1})
		if e.top {
			e.sh.sampling = false
		}
	}
	return t1 - t0
}

func (e *engShim) Put(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, error) {
	t0, id := e.enter(true)
	done, err := e.inner.Put(now, key, value, valueLen)
	e.putHist.add(e.exit(&e.put, "Put", t0, id, now, done))
	return done, err
}

func (e *engShim) Get(now sim.Duration, key []byte) (sim.Duration, []byte, bool, error) {
	t0, id := e.enter(true)
	done, v, found, err := e.inner.Get(now, key)
	e.exit(&e.get, "Get", t0, id, now, done)
	return done, v, found, err
}

func (e *engShim) Delete(now sim.Duration, key []byte) (sim.Duration, error) {
	t0, id := e.enter(true)
	done, err := e.del.Delete(now, key)
	e.exit(&e.other, "Delete", t0, id, now, done)
	return done, err
}

func (e *engShim) Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error) {
	t0, id := e.enter(false)
	done, ents, err := e.scan.Scan(now, start, limit)
	e.exit(&e.other, "Scan", t0, id, now, done)
	return done, ents, err
}

func (e *engShim) FlushAll(now sim.Duration) (sim.Duration, error) {
	t0, id := e.enter(false)
	done, err := e.inner.FlushAll(now)
	e.exit(&e.other, "FlushAll", t0, id, now, done)
	return done, err
}

func (e *engShim) Quiesce(now sim.Duration) sim.Duration {
	t0, id := e.enter(false)
	done := e.inner.Quiesce(now)
	e.exit(&e.other, "Quiesce", t0, id, now, done)
	return done
}

func (e *engShim) Close(now sim.Duration) (sim.Duration, error) { return e.inner.Close(now) }
func (e *engShim) Stats() kv.EngineStats                        { return e.inner.Stats() }
func (e *engShim) DiskUsageBytes() int64                        { return e.inner.DiskUsageBytes() }

func (e engShimGC) BeginGroupCommit() { e.gc.BeginGroupCommit() }

func (e engShimGC) EndGroupCommit(now sim.Duration) (sim.Duration, error) {
	t0, id := e.enter(false)
	done, err := e.gc.EndGroupCommit(now)
	// A group without a journal returns 0 ("no shared sync"): no virtual time.
	e.exit(&e.other, "EndGroupCommit", t0, id, now, max(done, now))
	return done, err
}

func (e engShimFO) Kill(i int) error { return e.fo.Kill(i) }
func (e engShimFO) Live() int        { return e.fo.Live() }
func (e engShimFO) MinLive() int     { return e.fo.MinLive() }

// devCall is one logged device call, enough to replay it against a bare
// flash device, packed into 16 bytes: a write-heavy cell logs several
// million of them.
type devCall struct {
	now   sim.Duration
	off   uint32
	nKind uint32 // page count, kind in the top two bits
}

const (
	devWrite uint32 = iota
	devRead
	devDiscard
	kindShift = 30
)

func (c devCall) kind() uint32 { return c.nKind >> kindShift }
func (c devCall) n() int       { return int(c.nKind & (1<<kindShift - 1)) }

// devLog is an append-only log in fixed chunks, so that growing it never
// copies (a doubling slice would re-copy 100 MB inside the traced phase).
type devLog struct {
	chunks [][]devCall
	n      int
}

const logChunk = 1 << 16

func (l *devLog) append(c devCall) {
	if l.n%logChunk == 0 {
		l.chunks = append(l.chunks, make([]devCall, 0, logChunk))
	}
	last := len(l.chunks) - 1
	l.chunks[last] = append(l.chunks[last], c)
	l.n++
}

// slices returns the entries [from, to) as consecutive sub-slices.
func (l *devLog) slices(from, to int) [][]devCall {
	var out [][]devCall
	for from < to {
		c := l.chunks[from/logChunk]
		lo := from % logChunk
		hi := min(len(c), lo+to-from)
		out = append(out, c[lo:hi])
		from += hi - lo
	}
	return out
}

// devShim times and logs every call through one blockdev.Dev seam. It
// forwards ContentEnabled because wal.Replay asserts on it.
type devShim struct {
	inner   *blockdev.Device
	tr      *tracer
	sh      *shardTrace
	replica int

	write, read, discard callAgg
	syncs                int64
	log                  devLog
	measFrom, measTo     int // the measured phase's range of log
}

func (t *tracer) wrapDev(s *stack) blockdev.Dev {
	sh := t.shard(s.shard)
	d := &devShim{inner: s.dev, tr: t, sh: sh, replica: s.replica}
	sh.devs = append(sh.devs, d)
	return d
}

func (d *devShim) enter() (t0 int64, id uint64) {
	if d.sh.sampling {
		id = d.sh.push()
	}
	return d.tr.clock(), id
}

func (d *devShim) exit(a *callAgg, kind uint32, name string, t0 int64, id uint64, now, done sim.Duration, off int64, n int) {
	t1 := d.tr.clock()
	a.calls++
	a.hostNs += t1 - t0
	a.virtNs += int64(done - now)
	a.pages += int64(n)
	d.log.append(devCall{now: now, off: uint32(off), nKind: kind<<kindShift | uint32(n)})
	if id != 0 {
		d.sh.pop(span{name: name, id: id, replica: d.replica, t0: t0, t1: t1, v0: now, v1: done})
	}
}

func (d *devShim) PageSize() int        { return d.inner.PageSize() }
func (d *devShim) Pages() int64         { return d.inner.Pages() }
func (d *devShim) ContentEnabled() bool { return d.inner.ContentEnabled() }

func (d *devShim) WriteAt(now sim.Duration, off int64, n int, data []byte) sim.Duration {
	t0, id := d.enter()
	done := d.inner.WriteAt(now, off, n, data)
	d.exit(&d.write, devWrite, "blockdev.write", t0, id, now, done, off, n)
	return done
}

func (d *devShim) ReadAt(now sim.Duration, off int64, n int, buf []byte) sim.Duration {
	t0, id := d.enter()
	done := d.inner.ReadAt(now, off, n, buf)
	d.exit(&d.read, devRead, "blockdev.read", t0, id, now, done, off, n)
	return done
}

func (d *devShim) WriteErr(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error) {
	t0, id := d.enter()
	done, err := d.inner.WriteErr(now, off, n, data)
	d.exit(&d.write, devWrite, "blockdev.write", t0, id, now, done, off, n)
	return done, err
}

func (d *devShim) ReadErr(now sim.Duration, off int64, n int, buf []byte) (sim.Duration, error) {
	t0, id := d.enter()
	done, err := d.inner.ReadErr(now, off, n, buf)
	d.exit(&d.read, devRead, "blockdev.read", t0, id, now, done, off, n)
	return done, err
}

func (d *devShim) Discard(off int64, n int) {
	t0, id := d.enter()
	d.inner.Discard(off, n)
	d.exit(&d.discard, devDiscard, "blockdev.discard", t0, id, 0, 0, off, n)
}

func (d *devShim) SyncErr() error {
	d.syncs++
	return d.inner.SyncErr()
}

// writeChrome writes the sampled spans as Chrome-trace JSON (load it in
// chrome://tracing or ui.perfetto.dev): one process, one thread per
// shard plus one for the driver's pumps; args carry the span id, its
// parent, the op id and the call's virtual start and end.
func (t *tracer) writeChrome(path string) (spans int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	emit := func(list []span) {
		for _, s := range list {
			if spans > 0 {
				w.WriteByte(',')
			}
			spans++
			fmt.Fprintf(w, "\n"+`{"name":%q,"cat":"ptsbench","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"op":%d,"replica":%d,"virt_start_ns":%d,"virt_end_ns":%d}}`,
				s.name, s.shard+1, float64(s.t0)/1e3, float64(s.t1-s.t0)/1e3, s.id, s.parent, s.op, s.replica, int64(s.v0), int64(s.v1))
		}
	}
	emit(t.pumps)
	for _, sh := range t.shards {
		emit(sh.spans)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return spans, err
	}
	return spans, f.Close()
}
