package lsm

import (
	"bytes"
	"container/heap"
	"sort"

	"ptsbench/internal/deverr"
	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/sstable"
)

// pickL0Compaction is the L0 worker's idle puller: it returns an L0->L1
// job when the file-count trigger fires (inputs marked busy), or nil.
func (d *DB) pickL0Compaction() sim.Job {
	if d.fatal != nil || d.closed {
		return nil
	}
	if len(d.levels[0]) >= d.cfg.L0CompactionTrigger && !d.anyBusy(d.levels[0]) {
		inputs := append([]*sstable.Table(nil), d.levels[0]...)
		lo, hi := rangeOf(inputs)
		overlap := overlapping(d.levels[1], lo, hi)
		if !d.anyBusy(overlap) {
			return d.newCompactionJob(0, 1, inputs, overlap)
		}
	}
	return nil
}

// pickDeepCompaction is the deep worker's idle puller: it selects the
// sorted level with the highest size score and compacts its
// least-overlapping file into the next level.
func (d *DB) pickDeepCompaction() sim.Job {
	if d.fatal != nil || d.closed {
		return nil
	}
	bestLevel, bestScore := -1, 1.0
	for li := 1; li < len(d.levels)-1; li++ {
		if len(d.levels[li]) == 0 {
			continue
		}
		score := float64(d.levelBytes[li]) / float64(d.cfg.levelTarget(li))
		if score > bestScore {
			bestScore, bestLevel = score, li
		}
	}
	if bestLevel < 0 {
		return nil
	}
	t := d.pickFileMinOverlap(bestLevel)
	if t == nil || d.busy[t.ID] {
		return nil
	}
	overlap := overlapping(d.levels[bestLevel+1], t.Smallest(), t.Largest())
	if d.anyBusy(overlap) {
		return nil
	}
	return d.newCompactionJob(bestLevel, bestLevel+1, []*sstable.Table{t}, overlap)
}

// pickFileMinOverlap selects the file of a level whose compaction into
// the next level rewrites the least data per byte moved — RocksDB's
// default kMinOverlappingRatio heuristic, which keeps the effective
// write amplification per level well below the worst case.
func (d *DB) pickFileMinOverlap(level int) *sstable.Table {
	files := d.levels[level]
	if len(files) == 0 {
		return nil
	}
	next := d.levels[level+1]
	var best *sstable.Table
	bestRatio := -1.0
	for _, t := range files {
		if d.busy[t.ID] {
			continue
		}
		lo, hi := overlapRange(next, t.Smallest(), t.Largest())
		var overlapBytes int64
		busy := false
		for _, o := range next[lo:hi] {
			if d.busy[o.ID] {
				busy = true
				break
			}
			overlapBytes += o.SizeBytes()
		}
		if busy {
			continue
		}
		ratio := float64(overlapBytes) / float64(t.SizeBytes()+1)
		if bestRatio < 0 || ratio < bestRatio {
			bestRatio = ratio
			best = t
		}
	}
	return best
}

func (d *DB) anyBusy(tables []*sstable.Table) bool {
	for _, t := range tables {
		if d.busy[t.ID] {
			return true
		}
	}
	return false
}

// rangeOf returns the smallest and largest keys across tables.
func rangeOf(tables []*sstable.Table) (lo, hi []byte) {
	for _, t := range tables {
		if t.NumEntries() == 0 {
			continue
		}
		if lo == nil || bytes.Compare(t.Smallest(), lo) < 0 {
			lo = t.Smallest()
		}
		if hi == nil || bytes.Compare(t.Largest(), hi) > 0 {
			hi = t.Largest()
		}
	}
	return lo, hi
}

// overlapRange returns the half-open index range [i, j) of the files in
// a sorted, non-overlapping level whose key ranges intersect [lo, hi]
// (inclusive; nil bounds are unbounded). Binary search on the sorted
// level replaces the per-file scan — the pickers call this for every
// candidate file, so the level-squared comparison cost used to dominate
// compaction scheduling.
func overlapRange(level []*sstable.Table, lo, hi []byte) (int, int) {
	i := 0
	if lo != nil {
		i = sort.Search(len(level), func(k int) bool {
			return kv.CompareKeys(level[k].Largest(), lo) >= 0
		})
	}
	j := i
	for j < len(level) && (hi == nil || kv.CompareKeys(level[j].Smallest(), hi) <= 0) {
		j++
	}
	return i, j
}

// overlapping returns the tables in a sorted level intersecting [lo, hi]
// as a subslice view of the level (callers copy what they retain).
func overlapping(level []*sstable.Table, lo, hi []byte) []*sstable.Table {
	i, j := overlapRange(level, lo, hi)
	return level[i:j]
}

// compactionJob merges input tables from fromLevel and toLevel into new
// toLevel tables, charging reads and writes in chunks.
type compactionJob struct {
	d         *DB
	fromLevel int
	toLevel   int
	inputs    []*sstable.Table // all inputs (both levels)
	fromCount int              // first fromCount inputs are fromLevel files
	fromIDs   map[uint64]bool  // IDs from fromLevel
	images    []*sstable.FileImage

	// I/O progress.
	readPagesTotal int64
	readCharged    int64
	readCursorFile int
	readCursorPage int64
	imgIdx         int
	imgWritten     int64
	outFiles       []*extfs.File
	started        bool
}

func (d *DB) newCompactionJob(from, to int, fromTables, toTables []*sstable.Table) *compactionJob {
	j := &compactionJob{
		d:         d,
		fromLevel: from,
		toLevel:   to,
		fromIDs:   make(map[uint64]bool),
	}
	j.inputs = append(append([]*sstable.Table(nil), fromTables...), toTables...)
	j.fromCount = len(fromTables)
	for _, t := range fromTables {
		j.fromIDs[t.ID] = true
	}
	for _, t := range j.inputs {
		d.busy[t.ID] = true
		j.readPagesTotal += t.FilePages()
	}
	d.shapeBusy++
	j.merge()
	return j
}

// merge computes the output images (CPU-instant; I/O is charged in
// Step). Duplicate user keys keep only the highest sequence number;
// tombstones are dropped when the output level is the deepest populated
// level.
func (j *compactionJob) merge() {
	d := j.d
	drop := j.toLevel >= d.deepestPopulatedLevel()
	remaining := 0
	var inputBytes int64
	for _, t := range j.inputs {
		remaining += t.NumEntries()
		inputBytes += t.SizeBytes()
	}
	if j.fromCount == 1 && !d.cfg.Content {
		// Deep compactions (one input file against its sorted overlap
		// run) take the galloping bulk path: runs of entries between
		// merge boundaries are appended straight from the input tables'
		// side indexes, with binary-searched boundaries instead of a
		// per-entry compare-and-copy.
		j.mergeFast(drop, remaining, inputBytes)
		return
	}
	// The toLevel inputs are a sorted, non-overlapping run: concatenate
	// them (no comparisons) and merge against the fromLevel files. The
	// common deep compaction — one input file against its overlap run —
	// becomes a two-way merge with a single comparison per entry instead
	// of a heap.
	its := make([]kv.Iterator, 0, j.fromCount+1)
	for _, t := range j.inputs[:j.fromCount] {
		its = append(its, t.Iterator())
	}
	if len(j.inputs) > j.fromCount {
		its = append(its, newConcatIter(j.inputs[j.fromCount:]))
	}
	var m kv.Iterator
	switch len(its) {
	case 1:
		m = its[0]
	case 2:
		m = newTwoWayMergeIter(its[0], its[1])
	default:
		m = newMergeIter(its)
	}
	// Presize each output builder for the entries one target-size file
	// holds (remaining entries when fewer) — dedup only shrinks the need.
	perFileHint := j.perFileEntryHint(remaining, inputBytes)
	var b *sstable.Builder
	var lastKey []byte
	flushImage := func() {
		if b != nil && b.NumEntries() > 0 {
			d.nextFileID++
			j.images = append(j.images, b.Finish(d.nextFileID))
		}
		b = nil
	}
	for m.Next() {
		e := m.Entry()
		if lastKey != nil && bytes.Equal(e.Key, lastKey) {
			continue // older duplicate
		}
		lastKey = append(lastKey[:0], e.Key...)
		if e.Deleted && drop {
			continue
		}
		if b == nil {
			hint := perFileHint
			if remaining < hint {
				hint = remaining
			}
			b = sstable.NewBuilder(d.fs.PageSize(), d.cfg.BlockBytes, d.cfg.Content, hint)
		}
		remaining--
		if err := b.Add(e); err != nil {
			d.fatal = deverr.Latch(err)
			return
		}
		if b.EstimatedBytes() >= d.cfg.TargetFileBytes {
			flushImage()
		}
	}
	flushImage()
}

// perFileEntryHint sizes an output builder for one target-size file.
func (j *compactionJob) perFileEntryHint(remaining int, inputBytes int64) int {
	perFileHint := remaining
	if remaining > 0 && inputBytes > 0 {
		avg := inputBytes / int64(remaining)
		if avg > 0 {
			if h := int(j.d.cfg.TargetFileBytes/avg) + 16; h < perFileHint {
				perFileHint = h
			}
		}
	}
	return perFileHint
}

// mergeFast is merge for the deep-compaction shape (one fromLevel file,
// a sorted non-overlapping toLevel run) in accounting mode. It produces
// bit-identical output images to the per-entry heap merge: the same
// entries in the same order with the same file-roll points — runs
// between merge boundaries are just appended in bulk, and only the
// boundary entries (equal user keys across the two sides) are compared
// individually. Equal keys keep the newer (higher-seq) version, exactly
// like the heap's (key asc, seq desc) order plus last-key dedup.
func (j *compactionJob) mergeFast(drop bool, remaining int, inputBytes int64) {
	d := j.d
	from := j.inputs[0]
	toTables := j.inputs[1:]
	target := d.cfg.TargetFileBytes
	perFileHint := j.perFileEntryHint(remaining, inputBytes)

	var b *sstable.Builder
	flushImage := func() {
		if b != nil && b.NumEntries() > 0 {
			d.nextFileID++
			j.images = append(j.images, b.Finish(d.nextFileID))
		}
		b = nil
	}
	emitRange := func(t *sstable.Table, lo, hi int) {
		for lo < hi {
			if b == nil {
				hint := perFileHint
				if remaining < hint {
					hint = remaining
				}
				b = sstable.NewBuilder(d.fs.PageSize(), d.cfg.BlockBytes, false, hint)
			}
			next := b.AppendTableRange(t, lo, hi, drop, target)
			remaining -= next - lo
			lo = next
			if b.EstimatedBytes() >= target {
				flushImage()
			}
		}
	}

	fi, fn := 0, from.NumEntries()
	tIdx, ti := 0, 0
	for {
		if tIdx >= len(toTables) {
			emitRange(from, fi, fn)
			break
		}
		tt := toTables[tIdx]
		tn := tt.NumEntries()
		if ti >= tn {
			tIdx++
			ti = 0
			continue
		}
		if fi >= fn {
			emitRange(tt, ti, tn)
			tIdx++
			ti = 0
			continue
		}
		switch c := kv.CompareKeys(from.KeyAt(fi), tt.KeyAt(ti)); {
		case c > 0:
			upper := tt.SearchFrom(ti, from.KeyAt(fi))
			emitRange(tt, ti, upper)
			ti = upper
		case c < 0:
			upper := from.SearchFrom(fi, tt.KeyAt(ti))
			emitRange(from, fi, upper)
			fi = upper
		default:
			// Same user key on both sides: keep the newer version, drop
			// the older (the heap emitted newer first and deduped).
			if from.SeqAt(fi) >= tt.SeqAt(ti) {
				emitRange(from, fi, fi+1)
			} else {
				emitRange(tt, ti, ti+1)
			}
			remaining-- // the shadowed version is consumed without output
			fi++
			ti++
		}
	}
	flushImage()
}

// deepestPopulatedLevel returns the index of the deepest level containing
// data (or 0).
func (d *DB) deepestPopulatedLevel() int {
	for li := len(d.levels) - 1; li >= 1; li-- {
		if len(d.levels[li]) > 0 {
			return li
		}
	}
	return 0
}

// writePagesTotal sums output image pages.
func (j *compactionJob) writePagesTotal() int64 {
	var n int64
	for _, img := range j.images {
		n += img.Pages
	}
	return n
}

// Step implements sim.Job: each step charges one chunk of read I/O
// (proportional to progress) and one chunk of write I/O.
func (j *compactionJob) Step(now sim.Duration) (sim.Duration, bool) {
	d := j.d
	if d.fatal != nil {
		j.abort()
		return now, true
	}
	j.started = true
	chunk := int64(d.cfg.ChunkPages)
	writeTotal := j.writePagesTotal()

	// Charge proportional input reads so reads and writes interleave:
	// after writing w of W pages, reads charged should be ~ w/W of R.
	var readTarget int64
	if writeTotal > 0 {
		written := j.totalWritten()
		readTarget = j.readPagesTotal * (written + chunk) / writeTotal
		if readTarget > j.readPagesTotal {
			readTarget = j.readPagesTotal
		}
	} else {
		readTarget = j.readCharged + chunk
		if readTarget > j.readPagesTotal {
			readTarget = j.readPagesTotal
		}
	}
	now = j.chargeReads(now, readTarget)

	// Write one chunk of the current output image.
	if j.imgIdx < len(j.images) {
		img := j.images[j.imgIdx]
		if j.imgWritten == 0 {
			// The id was minted when the image was built; the file name
			// must be derived from it, not from a fresh id.
			f, err := d.fs.Create(sstFileName(img.ID()))
			if err != nil {
				d.fatal = deverr.Latch(err)
				j.abort()
				return now, true
			}
			j.outFiles = append(j.outFiles, f)
		}
		var done bool
		var err error
		before := j.imgWritten
		now, j.imgWritten, done, err = img.WriteChunk(now, j.outFiles[j.imgIdx], j.imgWritten, d.cfg.ChunkPages)
		if err != nil {
			d.fatal = deverr.Latch(err)
			j.abort()
			return now, true
		}
		d.ioStats.CompactionWriteB += (j.imgWritten - before) * int64(d.fs.PageSize())
		if done {
			j.imgIdx++
			j.imgWritten = 0
		}
		return now, false
	}
	// All writes issued; finish remaining reads, then commit.
	if j.readCharged < j.readPagesTotal {
		now = j.chargeReads(now, min(j.readCharged+chunk, j.readPagesTotal))
		return now, false
	}
	return j.commit(now), true
}

func (j *compactionJob) totalWritten() int64 {
	var n int64
	for i := 0; i < j.imgIdx; i++ {
		n += j.images[i].Pages
	}
	return n + j.imgWritten
}

// chargeReads advances input read accounting up to target pages. With
// CompactionReadParallelism > 1 the per-file read requests of one step
// are submitted at the same virtual time in waves of that size, so
// reads from distinct input files overlap on the device's internal
// lanes; otherwise each read queues behind the previous one.
func (j *compactionJob) chargeReads(now sim.Duration, target int64) sim.Duration {
	par := j.d.cfg.CompactionReadParallelism
	inFlight := 0
	waveEnd := now
	for j.readCharged < target && j.readCursorFile < len(j.inputs) {
		t := j.inputs[j.readCursorFile]
		remainInFile := t.FilePages() - j.readCursorPage
		if remainInFile <= 0 {
			j.readCursorFile++
			j.readCursorPage = 0
			continue
		}
		n := target - j.readCharged
		if n > remainInFile {
			n = remainInFile
		}
		done, err := t.ReadPages(now, j.readCursorPage, int(n))
		if err != nil {
			j.d.fatal = deverr.Latch(err)
			return now
		}
		if done > waveEnd {
			waveEnd = done
		}
		inFlight++
		if inFlight >= par {
			now = waveEnd
			inFlight = 0
		}
		j.readCursorPage += n
		j.readCharged += n
		j.d.ioStats.CompactionReadB += n * int64(j.d.fs.PageSize())
	}
	return waveEnd
}

// commit atomically installs outputs and removes inputs.
func (j *compactionJob) commit(now sim.Duration) sim.Duration {
	d := j.d
	// Install outputs into toLevel.
	outputs := make([]*sstable.Table, len(j.images))
	for i, img := range j.images {
		outputs[i] = img.Install(j.outFiles[i])
	}
	// Remove inputs from their levels.
	inputIDs := make(map[uint64]bool, len(j.inputs))
	for _, t := range j.inputs {
		inputIDs[t.ID] = true
		delete(d.busy, t.ID)
		if j.fromIDs[t.ID] {
			d.levelBytes[j.fromLevel] -= t.SizeBytes()
		} else {
			d.levelBytes[j.toLevel] -= t.SizeBytes()
		}
	}
	for _, li := range []int{j.fromLevel, j.toLevel} {
		kept := d.levels[li][:0]
		for _, t := range d.levels[li] {
			if !inputIDs[t.ID] {
				kept = append(kept, t)
			}
		}
		d.levels[li] = kept
	}
	// Insert outputs sorted by smallest key.
	d.levels[j.toLevel] = insertSorted(d.levels[j.toLevel], outputs)
	for _, t := range outputs {
		d.levelBytes[j.toLevel] += t.SizeBytes()
	}
	d.shapeChanged()
	// Delete input files (extents freed; no TRIM under nodiscard). The
	// ordering against the manifest write differs by mode: in content mode
	// the inputs must outlive it — recovery can fall back to the older
	// manifest slot, which still names them, so removing them first would
	// make a cut inside the commit window unrecoverable. Accounting mode
	// cannot recover anyway and keeps the historical remove-first order so
	// allocator state (and the golden fixtures pinned to it) stays
	// bit-identical.
	removeInputs := func() {
		for _, t := range j.inputs {
			if err := d.fs.Remove(t.FileName()); err != nil {
				d.fatal = deverr.Latch(err)
			}
		}
	}
	if !d.cfg.Content {
		removeInputs()
	}
	var err error
	if now, err = d.fs.Sync(now); err != nil {
		d.fatal = deverr.Latch(err)
		return now
	}
	if now, err = d.writeManifest(now); err != nil {
		d.fatal = deverr.Latch(err)
		return now
	}
	if d.cfg.Content {
		if err := d.fs.Barrier(); err != nil {
			d.fatal = deverr.Latch(err)
			return now
		}
		removeInputs()
	}
	d.ioStats.Compactions++
	return now
}

// abort unmarks inputs and removes partial outputs.
func (j *compactionJob) abort() {
	d := j.d
	for _, t := range j.inputs {
		delete(d.busy, t.ID)
	}
	d.shapeBusy++
	for _, f := range j.outFiles {
		_ = d.fs.Remove(f.Name())
	}
	j.outFiles = nil
}

// insertSorted merges outputs into a level keeping smallest-key order.
func insertSorted(level, outputs []*sstable.Table) []*sstable.Table {
	level = append(level, outputs...)
	// Insertion sort: levels are small and mostly sorted.
	for i := 1; i < len(level); i++ {
		for k := i; k > 0 && bytes.Compare(level[k].Smallest(), level[k-1].Smallest()) < 0; k-- {
			level[k], level[k-1] = level[k-1], level[k]
		}
	}
	return level
}

// mergeIter is a k-way merge over iterators ordered by (key asc, seq
// desc). Elements hold entries by value, so advancing the merge performs
// no per-entry allocation; Entry stays valid only until the next call to
// Next, which every consumer already respects (they copy what they keep).
type mergeIter struct {
	h   mergeHeap
	cur kv.Entry
}

type mergeElem struct {
	it kv.Iterator
	e  kv.Entry
}

type mergeHeap []mergeElem

func (h mergeHeap) Len() int           { return len(h) }
func (h mergeHeap) Less(i, j int) bool { return kv.Compare(&h[i].e, &h[j].e) < 0 }
func (h mergeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)        { *h = append(*h, x.(mergeElem)) }
func (h *mergeHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

func newMergeIter(its []kv.Iterator) *mergeIter {
	m := &mergeIter{}
	for _, it := range its {
		if it.Next() {
			m.h = append(m.h, mergeElem{it: it, e: *it.Entry()})
		}
	}
	heap.Init(&m.h)
	return m
}

func (m *mergeIter) Next() bool {
	if len(m.h) == 0 {
		return false
	}
	top := &m.h[0]
	m.cur = top.e
	if top.it.Next() {
		top.e = *top.it.Entry()
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
	return true
}

func (m *mergeIter) Entry() *kv.Entry { return &m.cur }

// concatIter iterates the tables of a sorted, non-overlapping run in
// order — comparison-free, because within such a run table i's largest
// key precedes table i+1's smallest.
type concatIter struct {
	tables []*sstable.Table
	cur    kv.Iterator
	idx    int
}

func newConcatIter(tables []*sstable.Table) *concatIter {
	return &concatIter{tables: tables}
}

func (c *concatIter) Next() bool {
	for {
		if c.cur != nil && c.cur.Next() {
			return true
		}
		if c.idx >= len(c.tables) {
			return false
		}
		c.cur = c.tables[c.idx].Iterator()
		c.idx++
	}
}

func (c *concatIter) Entry() *kv.Entry { return c.cur.Entry() }

// twoWayMergeIter merges two (key asc, seq desc)-ordered iterators with
// one comparison per emitted entry — the shape of every deep compaction
// (one input file against its next-level overlap run).
type twoWayMergeIter struct {
	a, b     kv.Iterator
	aOK, bOK bool
	last     int // 1 = a emitted last, 2 = b, 0 = none
}

func newTwoWayMergeIter(a, b kv.Iterator) *twoWayMergeIter {
	return &twoWayMergeIter{a: a, b: b, aOK: a.Next(), bOK: b.Next()}
}

func (m *twoWayMergeIter) Next() bool {
	switch m.last {
	case 1:
		m.aOK = m.a.Next()
	case 2:
		m.bOK = m.b.Next()
	}
	switch {
	case m.aOK && m.bOK:
		if kv.Compare(m.a.Entry(), m.b.Entry()) <= 0 {
			m.last = 1
		} else {
			m.last = 2
		}
	case m.aOK:
		m.last = 1
	case m.bOK:
		m.last = 2
	default:
		m.last = 0
		return false
	}
	return true
}

func (m *twoWayMergeIter) Entry() *kv.Entry {
	if m.last == 1 {
		return m.a.Entry()
	}
	return m.b.Entry()
}
