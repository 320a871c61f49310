package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"ptsbench/internal/deverr"
	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/memtable"
	"ptsbench/internal/sim"
	"ptsbench/internal/sstable"
	"ptsbench/internal/wal"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("lsm: database is closed")

// DB is the LSM engine. It is single-threaded by design: the simulation
// drives it from one goroutine, and "background" work runs on sim.Worker
// actors pumped from the foreground path.
type DB struct {
	cfg Config
	fs  *extfs.FS
	rng *sim.RNG

	mem  *memtable.Memtable
	imm  []*immutable // rotated memtables awaiting flush, oldest first
	walW *wal.Writer  // segment for the active memtable

	// levels[0] is L0 (overlapping, newest first); levels[i>=1] are
	// sorted runs ordered by smallest key.
	levels [][]*sstable.Table
	busy   map[uint64]bool // table IDs participating in a compaction
	// levelBytes caches per-level logical sizes, maintained at flush and
	// compaction commits, so backpressure checks are O(levels) per put.
	levelBytes []int64

	seq        uint64
	nextFileID uint64
	walID      uint64
	// flushedSeq is the highest KV sequence number known to be covered by
	// a table named in the manifest. Persisted there, it lets recovery
	// skip WAL records at or below the mark — without it, a recycled
	// segment whose header-zeroing write was lost in a crash would
	// resurrect stale records into the memtable, which Get prefers over
	// the (newer) table state.
	flushedSeq  uint64
	walPool     []*wal.Writer // recycled segments awaiting reuse
	manifestSeq uint64

	flushW *sim.Worker
	// Two compaction workers mirror RocksDB's background pool: L0->L1
	// compactions must not queue behind long deep-level compactions, or
	// L0 fills and the engine stalls far below its sustainable rate.
	compactW  *sim.Worker // L0 -> L1
	compactWD *sim.Worker // deep levels (L1+)

	// probeCandidates is scratch for getParallel, reused across Gets.
	probeCandidates []*sstable.Table

	// shapeL0/shapeDeep/shapeBusy version the picker-relevant state:
	// levels[0]+levelBytes[0], the sorted levels, and the busy set. The
	// idle pullers are consulted on every foreground operation; memoizing
	// "no work available at shape S" makes those probes O(1) instead of
	// re-scanning file overlaps per operation. The split matters because
	// flushes — by far the most frequent shape change — touch only L0,
	// which the deep picker never reads, so they must not invalidate the
	// deep picker's memo. Any mutation of levels, levelBytes or busy must
	// bump the matching counter(s).
	shapeL0      uint64
	shapeDeep    uint64
	shapeBusy    uint64
	l0ProbedAt   uint64 // shapeSum for L0 at last nil pickL0Compaction
	deepProbedAt uint64 // shapeSum for deep at last nil pickDeepCompaction
	debtShape    uint64 // shapeL0+shapeDeep the debt memo was computed at
	debtMemo     int64  // memoized compactionDebt (0 is a valid value; keyed by debtShape, which starts unmatched)

	stats   kv.EngineStats
	ioStats IOStats
	fatal   error // out-of-space or similar; surfaced on every call
	closed  bool
}

type immutable struct {
	mt     *memtable.Memtable
	walW   *wal.Writer // segment covering this memtable, recycled after flush
	maxSeq uint64      // KV sequence high-water mark at rotation
}

// IOStats exposes internal activity counters for tests and reports.
type IOStats struct {
	Flushes          int64
	Compactions      int64
	CompactionReadB  int64
	CompactionWriteB int64
	StallEvents      int64
}

// Open creates an LSM database on fs. The filesystem must be empty (the
// simulation never re-opens a cold store at benchmark scale; see Recover
// for the content-mode crash-recovery path).
func Open(fs *extfs.FS, cfg Config, rng *sim.RNG) (*DB, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	d := &DB{
		cfg:        cfg,
		fs:         fs,
		rng:        rng,
		levels:     make([][]*sstable.Table, cfg.NumLevels),
		levelBytes: make([]int64, cfg.NumLevels),
		busy:       make(map[uint64]bool),
		flushW:     sim.NewWorker("lsm-flush"),
		compactW:   sim.NewWorker("lsm-compact-l0"),
		compactWD:  sim.NewWorker("lsm-compact-deep"),
	}
	d.shapeL0 = 1
	d.mem = memtable.New(rng.Split())
	if !cfg.DisableWAL {
		w, err := wal.Create(fs, d.walName(), cfg.Content)
		if err != nil {
			return nil, err
		}
		d.walW = w
	}
	d.compactW.SetIdlePuller(d.pullL0Compaction)
	d.compactWD.SetIdlePuller(d.pullDeepCompaction)
	return d, nil
}

// shapeChanged invalidates both pickers' no-work memos; mutations with a
// narrower footprint bump the individual counters instead.
func (d *DB) shapeChanged() {
	d.shapeL0++
	d.shapeDeep++
	d.shapeBusy++
}

// pullL0Compaction wraps pickL0Compaction with the shape memo: the picker
// is a pure function of the tree shape, so a nil answer stays nil until
// the state it reads (L0, L1, busy set) changes.
func (d *DB) pullL0Compaction() sim.Job {
	s := d.shapeL0 + d.shapeDeep + d.shapeBusy
	if d.l0ProbedAt == s {
		return nil
	}
	j := d.pickL0Compaction()
	if j == nil {
		d.l0ProbedAt = s
	}
	return j
}

// pullDeepCompaction is the memoized pickDeepCompaction; it reads only
// the sorted levels and the busy set, never L0.
func (d *DB) pullDeepCompaction() sim.Job {
	s := d.shapeDeep + d.shapeBusy
	if d.deepProbedAt == s {
		return nil
	}
	j := d.pickDeepCompaction()
	if j == nil {
		d.deepProbedAt = s
	}
	return j
}

func (d *DB) walName() string {
	d.walID++
	return fmt.Sprintf("wal-%06d", d.walID)
}

// sstFileName names the file holding table id. The name is derived
// from the id embedded in the table's footer — never minted separately
// — so recovery can bind the two and refuse a stale image a lying
// device resurrected under a newer name.
func sstFileName(id uint64) string {
	return fmt.Sprintf("sst-%06d", id)
}

// Config returns the validated configuration.
func (d *DB) Config() Config { return d.cfg }

// Stats implements kv.Engine.
func (d *DB) Stats() kv.EngineStats { return d.stats }

// IO returns internal activity counters.
func (d *DB) IO() IOStats { return d.ioStats }

// DiskUsageBytes implements kv.Engine: the engine owns its filesystem, so
// the filesystem footprint is the engine footprint.
func (d *DB) DiskUsageBytes() int64 { return d.fs.UsedBytes() }

// LevelSizes returns the current byte size of each level (L0 first).
func (d *DB) LevelSizes() []int64 {
	out := make([]int64, len(d.levelBytes))
	copy(out, d.levelBytes)
	return out
}

// compactionDebt estimates pending compaction bytes: everything in L0
// plus each sorted level's excess over its target (RocksDB's
// estimated_pending_compaction_bytes analogue). The value is a pure
// function of levelBytes, so it is memoized on the shape counters — the
// stall and slowdown checks consult it on every write.
func (d *DB) compactionDebt() int64 {
	s := d.shapeL0 + d.shapeDeep
	if d.debtShape == s {
		return d.debtMemo
	}
	debt := d.levelBytes[0]
	for li := 1; li < len(d.levelBytes)-1; li++ {
		if excess := d.levelBytes[li] - d.cfg.levelTarget(li); excess > 0 {
			debt += excess
		}
	}
	d.debtShape, d.debtMemo = s, debt
	return debt
}

// pump advances background workers to the foreground time.
func (d *DB) pump(now sim.Duration) {
	d.flushW.Pump(now)
	d.compactW.Pump(now)
	d.compactWD.Pump(now)
}

// Put implements kv.Engine.
func (d *DB) Put(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, error) {
	return d.write(now, key, value, valueLen, false)
}

// Delete writes a tombstone for key.
func (d *DB) Delete(now sim.Duration, key []byte) (sim.Duration, error) {
	return d.write(now, key, nil, 0, true)
}

func (d *DB) write(now sim.Duration, key, value []byte, valueLen int, del bool) (sim.Duration, error) {
	if d.closed {
		return now, ErrClosed
	}
	if d.fatal != nil {
		return now, d.fatal
	}
	if value != nil {
		valueLen = len(value)
	}
	d.pump(now)

	// Backpressure: stall until flush/compaction catch up.
	if d.stalled() {
		start := now
		for d.stalled() {
			end1, ok1 := d.flushW.StepOnce()
			end2, ok2 := d.compactW.StepOnce()
			end3, ok3 := d.compactWD.StepOnce()
			if !ok1 && !ok2 && !ok3 {
				if d.fatal != nil {
					return now, d.fatal
				}
				return now, errors.New("lsm: stalled with no background work (bug)")
			}
			if end1 > now {
				now = end1
			}
			if end2 > now {
				now = end2
			}
			if end3 > now {
				now = end3
			}
		}
		if d.fatal != nil {
			return now, d.fatal
		}
		d.stats.StallTime += now - start
		d.ioStats.StallEvents++
	}

	// Slowdown: RocksDB throttles ingest to the delayed write rate when
	// L0 grows or compaction debt crosses the soft limit. This is what
	// stretches the transition from burst speed to steady state over
	// tens of minutes in the paper's Fig 2a.
	if len(d.levels[0]) >= d.cfg.L0SlowdownTrigger ||
		(d.cfg.SoftPendingBytes > 0 && d.compactionDebt() >= d.cfg.SoftPendingBytes) {
		delay := sim.Duration(float64(len(key)+valueLen) /
			float64(d.cfg.DelayedWriteBytesPerSec) * 1e9)
		now += delay
		d.stats.StallTime += delay
		d.pump(now)
	}

	now += d.cfg.CPUPutTime + time.Duration(valueLen)*d.cfg.CPUPerByte
	d.seq++
	if d.walW != nil {
		rec := wal.Record{Seq: d.seq, Key: key, Value: value, Deleted: del, ValueLen: valueLen}
		syncNow := d.cfg.SyncWAL && d.cfg.WALFlushBytes <= 0
		var err error
		now, err = d.walW.Append(now, &rec, syncNow)
		if err != nil {
			d.fatal = deverr.Latch(err)
			return now, err
		}
		if !syncNow && d.cfg.SyncWAL && d.walW.UnsyncedBytes() >= d.cfg.WALFlushBytes {
			now, err = d.walW.Sync(now)
			if err != nil {
				d.fatal = deverr.Latch(err)
				return now, err
			}
		}
	}
	d.mem.Put(key, value, valueLen, d.seq, del)
	d.stats.Puts++
	d.stats.UserBytesWritten += int64(len(key) + valueLen)

	if d.mem.SizeBytes() >= d.cfg.MemtableBytes {
		if err := d.rotateMemtable(); err != nil {
			d.fatal = deverr.Latch(err)
			return now, err
		}
	}
	return now, nil
}

// stalled reports whether foreground writes must stop for background
// work, mirroring RocksDB's stop conditions.
func (d *DB) stalled() bool {
	if len(d.imm) > d.cfg.MaxImmutableMemtables {
		return true
	}
	if len(d.levels[0]) >= d.cfg.L0StallTrigger {
		return true
	}
	if d.cfg.HardPendingBytes > 0 && d.compactionDebt() >= d.cfg.HardPendingBytes {
		return true
	}
	return false
}

// rotateMemtable freezes the active memtable and schedules its flush.
// WAL segments are recycled from a pool (overwritten in place) rather
// than deleted and recreated, mirroring real engines' log recycling and
// keeping journal traffic confined to a stable set of LBAs.
func (d *DB) rotateMemtable() error {
	im := &immutable{mt: d.mem, maxSeq: d.seq}
	if d.walW != nil {
		im.walW = d.walW
		if n := len(d.walPool); n > 0 {
			d.walW = d.walPool[n-1]
			d.walPool = d.walPool[:n-1]
		} else {
			w, err := wal.Create(d.fs, d.walName(), d.cfg.Content)
			if err != nil {
				return err
			}
			d.walW = w
		}
	}
	d.imm = append(d.imm, im)
	d.mem = memtable.New(d.rng.Split())
	d.flushW.Submit(newFlushJob(d, im))
	return nil
}

// Get implements kv.Engine.
func (d *DB) Get(now sim.Duration, key []byte) (sim.Duration, []byte, bool, error) {
	if d.closed {
		return now, nil, false, ErrClosed
	}
	if d.fatal != nil {
		return now, nil, false, d.fatal
	}
	d.pump(now)
	now += d.cfg.CPUGetTime
	d.stats.Gets++

	if e := d.mem.Get(key); e != nil {
		return d.foundEntry(now, e)
	}
	for i := len(d.imm) - 1; i >= 0; i-- {
		if e := d.imm[i].mt.Get(key); e != nil {
			return d.foundEntry(now, e)
		}
	}
	// One probe — the key's comparison words and Bloom hash — serves
	// every table the lookup visits.
	p := sstable.NewProbe(key)
	if d.cfg.ProbeParallelism > 1 {
		return d.getParallel(now, &p)
	}
	// L0: newest first, files overlap.
	for _, t := range d.levels[0] {
		done, e, found, err := t.Get(now, &p)
		now = done
		if err != nil {
			return now, nil, false, err
		}
		if found {
			return d.foundEntry(now, &e)
		}
	}
	// Sorted levels: at most one candidate file per level.
	for li := 1; li < len(d.levels); li++ {
		t := findInLevel(d.levels[li], &p)
		if t == nil {
			continue
		}
		done, e, found, err := t.Get(now, &p)
		now = done
		if err != nil {
			return now, nil, false, err
		}
		if found {
			return d.foundEntry(now, &e)
		}
	}
	return now, nil, false, nil
}

// getParallel probes candidate tables in priority-ordered waves of
// ProbeParallelism: every probe in a wave is submitted at the same
// virtual time, so their block reads overlap on the device's internal
// lanes; the wave completes when its slowest probe does. Within a wave
// the newest table that holds the key wins, which preserves the exact
// result of the sequential walk — the parallel path only trades
// speculative read I/O for latency, as a real multi-queue read path
// does.
func (d *DB) getParallel(now sim.Duration, p *sstable.Probe) (sim.Duration, []byte, bool, error) {
	cands := d.probeCandidates[:0]
	cands = append(cands, d.levels[0]...) // newest first, files overlap
	for li := 1; li < len(d.levels); li++ {
		if t := findInLevel(d.levels[li], p); t != nil {
			cands = append(cands, t)
		}
	}
	d.probeCandidates = cands[:0]
	for start := 0; start < len(cands); start += d.cfg.ProbeParallelism {
		end := start + d.cfg.ProbeParallelism
		if end > len(cands) {
			end = len(cands)
		}
		waveEnd := now
		hit := -1
		var hitEntry kv.Entry
		for i := start; i < end; i++ {
			done, e, found, err := cands[i].Get(now, p)
			if err != nil {
				return done, nil, false, err
			}
			if done > waveEnd {
				waveEnd = done
			}
			if found && hit < 0 {
				hit = i
				hitEntry = e
			}
		}
		now = waveEnd
		if hit >= 0 {
			return d.foundEntry(now, &hitEntry)
		}
	}
	return now, nil, false, nil
}

func (d *DB) foundEntry(now sim.Duration, e *kv.Entry) (sim.Duration, []byte, bool, error) {
	if e.Deleted {
		return now, nil, false, nil
	}
	d.stats.UserBytesRead += int64(len(e.Key) + e.ValueLen)
	return now, e.Value, true, nil
}

// findInLevel locates the unique file in a sorted level whose range may
// contain the probe's key.
func findInLevel(level []*sstable.Table, p *sstable.Probe) *sstable.Table {
	lo, hi := 0, len(level)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		t := level[mid]
		switch c := t.Position(p); {
		case c > 0:
			lo = mid + 1
		case c < 0:
			hi = mid - 1
		default:
			return t
		}
	}
	return nil
}

// Scan returns up to limit live entries with key >= start in key order,
// merging the memtable, immutable memtables and every level. Reads are
// charged per table for the data blocks the scan range covers — the
// range-query capability that motivates tree structures in the paper's
// introduction.
func (d *DB) Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error) {
	if d.closed {
		return now, nil, ErrClosed
	}
	if d.fatal != nil {
		return now, nil, d.fatal
	}
	d.pump(now)
	now += d.cfg.CPUGetTime

	var its []kv.Iterator
	its = append(its, d.mem.IteratorFrom(start))
	for _, im := range d.imm {
		its = append(its, im.mt.IteratorFrom(start))
	}
	// Tables whose range may intersect [start, inf). Track them so the
	// consumed block reads can be charged afterwards.
	var tables []*sstable.Table
	for _, t := range d.levels[0] {
		if t.NumEntries() > 0 && bytes.Compare(t.Largest(), start) >= 0 {
			its = append(its, t.IteratorFrom(start))
			tables = append(tables, t)
		}
	}
	for li := 1; li < len(d.levels); li++ {
		for _, t := range d.levels[li] {
			if t.NumEntries() > 0 && bytes.Compare(t.Largest(), start) >= 0 {
				its = append(its, t.IteratorFrom(start))
				tables = append(tables, t)
			}
		}
	}

	m := newMergeIter(its)
	var out []kv.Entry
	var lastKey []byte
	var endKey []byte
	for limit > 0 && m.Next() {
		e := m.Entry()
		if lastKey != nil && bytes.Equal(e.Key, lastKey) {
			continue // shadowed older version
		}
		lastKey = append(lastKey[:0], e.Key...)
		if e.Deleted {
			continue
		}
		out = append(out, kv.Entry{
			Key:      append([]byte(nil), e.Key...),
			Value:    e.Value,
			ValueLen: e.ValueLen,
			Seq:      e.Seq,
		})
		d.stats.UserBytesRead += int64(len(e.Key) + e.ValueLen)
		limit--
		endKey = out[len(out)-1].Key
	}
	// Charge block reads for the range [start, endKey] in every table
	// the merge consulted.
	if endKey != nil {
		for _, t := range tables {
			done, err := t.ReadRange(now, t.EntryIndex(start), t.EntryIndex(endKey))
			if err != nil {
				return now, nil, err
			}
			now = done
		}
	}
	// In content mode, entries that came from on-disk tables carry only
	// metadata (the side index does not retain value bytes); fetch their
	// values through the read path.
	if d.cfg.Content {
		for i := range out {
			if out[i].Value != nil || out[i].ValueLen == 0 {
				continue
			}
			done, v, found, err := d.Get(now, out[i].Key)
			if err != nil {
				return now, nil, err
			}
			now = done
			if found {
				out[i].Value = v
			}
		}
	}
	return now, out, nil
}

// FlushAll implements kv.Engine: it rotates the active memtable and runs
// all background work to completion, returning the quiesced time.
func (d *DB) FlushAll(now sim.Duration) (sim.Duration, error) {
	if d.closed {
		return now, ErrClosed
	}
	if d.mem.Len() > 0 {
		if err := d.rotateMemtable(); err != nil {
			return now, err
		}
	}
	d.pump(now)
	end := d.drainAll()
	if end < now {
		end = now
	}
	if d.fatal != nil {
		return end, d.fatal
	}
	return end, nil
}

// drainAll alternates the background workers until all queues are empty
// (work on one worker can unlock work for another).
func (d *DB) drainAll() sim.Duration {
	var end sim.Duration
	for {
		e1 := d.flushW.RunUntilDrained()
		e2 := d.compactW.RunUntilDrained()
		e3 := d.compactWD.RunUntilDrained()
		if e1 > end {
			end = e1
		}
		if e2 > end {
			end = e2
		}
		if e3 > end {
			end = e3
		}
		if d.flushW.QueueLen() == 0 && d.compactW.QueueLen() == 0 &&
			d.compactWD.QueueLen() == 0 {
			// Idle pullers may still have work to offer (e.g. a flush
			// just pushed L0 over its trigger). Probe them; any job a
			// probe creates must be submitted, since creation marks its
			// inputs busy.
			produced := false
			if j := d.pullL0Compaction(); j != nil {
				d.compactW.Submit(j)
				produced = true
			}
			if j := d.pullDeepCompaction(); j != nil {
				d.compactWD.Submit(j)
				produced = true
			}
			if !produced {
				return end
			}
		}
	}
}

// Quiesce pumps background work to completion without rotating the
// memtable (used between benchmark phases).
func (d *DB) Quiesce(now sim.Duration) sim.Duration {
	d.pump(now)
	end := d.drainAll()
	if end < now {
		end = now
	}
	return end
}

// Close flushes and shuts the database.
func (d *DB) Close(now sim.Duration) (sim.Duration, error) {
	if d.closed {
		return now, ErrClosed
	}
	end, err := d.FlushAll(now)
	d.closed = true
	return end, err
}

// Err returns the sticky fatal error, if any (e.g. out of space).
func (d *DB) Err() error { return d.fatal }
