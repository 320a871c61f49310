package lsm

import (
	"bytes"
	"container/heap"
	"slices"
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
		lo, hi := rangeOf(d.levels[0])
		overlap := overlapping(d.levels[1], lo, hi)
		if !d.anyBusy(overlap) {
			return d.newCompactionJob(0, 1, d.levels[0], overlap)
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
	if t == nil || d.busy[t.ID] != nil {
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
		if d.busy[t.ID] != nil {
			continue
		}
		lo, hi := overlapRange(next, t.Smallest(), t.Largest())
		var overlapBytes int64
		busy := false
		for _, o := range next[lo:hi] {
			if d.busy[o.ID] != nil {
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
		if d.busy[t.ID] != nil {
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
		if lo == nil || kv.CompareKeys(t.Smallest(), lo) < 0 {
			lo = t.Smallest()
		}
		if hi == nil || kv.CompareKeys(t.Largest(), hi) > 0 {
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
// toLevel tables, charging reads and writes in chunks. Jobs return to
// their DB at commit or abort (retire) and keep their slices'
// capacity, so a steady compaction cycle allocates none of them.
type compactionJob struct {
	d         *DB
	fromLevel int
	toLevel   int
	inputs    []*sstable.Table // all inputs (both levels), each marked in d.busy
	fromCount int              // first fromCount inputs are fromLevel files
	images    []*sstable.FileImage
	runs      []mergeRun       // merge's cursors
	outputs   []*sstable.Table // commit's installed images

	// I/O progress.
	readPagesTotal int64
	readCharged    int64
	readCursorFile int
	readCursorPage int64
	imgIdx         int
	imgWritten     int64
	outFiles       []*extfs.File
}

// newCompactionJob copies the inputs into a recycled job, marks them
// busy and lays out the outputs.
func (d *DB) newCompactionJob(from, to int, fromTables, toTables []*sstable.Table) *compactionJob {
	j := d.compactions.Get()
	j.d, j.fromLevel, j.toLevel, j.fromCount = d, from, to, len(fromTables)
	j.inputs = append(append(j.inputs, fromTables...), toTables...)
	for _, t := range j.inputs {
		d.busy[t.ID] = j
		j.readPagesTotal += t.FilePages()
	}
	d.shapeBusy++
	j.merge()
	return j
}

// retire hands a finished job back to its DB for the next pick. Its
// slices keep their capacity, emptied so they hold no table or file.
func (j *compactionJob) retire() {
	clear(j.inputs)
	clear(j.images)
	clear(j.outputs)
	clear(j.outFiles)
	*j = compactionJob{
		d:        j.d,
		inputs:   j.inputs[:0],
		images:   j.images[:0],
		runs:     j.runs[:0],
		outputs:  j.outputs[:0],
		outFiles: j.outFiles[:0],
	}
	j.d.compactions.Put(j)
}

// merge computes the output images (CPU-instant; I/O is charged in
// Step). It merges sorted runs of tables: each fromLevel table is a run
// of its own (L0 files overlap), the toLevel tables form one. The run
// holding the smallest key is appended in bulk, straight from its side
// index, up to the smallest head key of the other runs; a user key that
// several runs hold is emitted once, in its highest-seq version, and
// every one of those runs steps past it. Tombstones are dropped when the
// output level is the deepest populated level. The outputs are exactly
// what a per-entry merge in (key asc, seq desc) order with last-key
// dedup and Builder.Add would build: the same entries, blocks and
// file-roll points.
func (j *compactionJob) merge() {
	d := j.d
	drop := j.toLevel >= d.deepestPopulatedLevel()
	remaining := 0
	var inputBytes int64
	for _, t := range j.inputs {
		remaining += t.NumEntries()
		inputBytes += t.SizeBytes()
	}
	target := d.cfg.TargetFileBytes
	// Presize each output builder for the entries one target-size file
	// holds (remaining entries when fewer) — dedup only shrinks the need.
	perFileHint := remaining
	if remaining > 0 && inputBytes > 0 {
		if avg := inputBytes / int64(remaining); avg > 0 {
			perFileHint = min(perFileHint, int(target/avg)+16)
		}
	}

	var b *sstable.Builder
	var err error
	flushImage := func() {
		if b != nil && b.NumEntries() > 0 {
			d.nextFileID++
			j.images = append(j.images, b.Finish(d.nextFileID))
		}
		b = nil
	}
	emitRange := func(t *sstable.Table, lo, hi int) {
		for lo < hi && err == nil {
			if b == nil {
				b = sstable.NewBuilder(d.fs.PageSize(), d.cfg.BlockBytes, d.cfg.Content, min(perFileHint, remaining), &d.spares)
			}
			var next int
			next, err = b.AppendTableRange(t, lo, hi, drop, target)
			remaining -= next - lo
			lo = next
			if b.EstimatedBytes() >= target {
				flushImage()
			}
		}
	}

	runs := j.runs[:0]
	for i := 0; i < j.fromCount; i++ {
		runs = append(runs, mergeRun{tables: j.inputs[i : i+1]})
	}
	if len(j.inputs) > j.fromCount {
		runs = append(runs, mergeRun{tables: j.inputs[j.fromCount:]})
	}
	j.runs = runs
	for err == nil {
		live := runs[:0]
		for _, r := range runs {
			if r.live() {
				live = append(live, r)
			}
		}
		if runs = live; len(runs) == 0 {
			break
		}
		// Run m holds the smallest head key, head; bound is the smallest
		// head key of the other runs (nil when m is the only run left),
		// and tie says it equals head.
		m, head, tie := 0, runs[0].key(), false
		var bound []byte
		for k := 1; k < len(runs); k++ {
			key := runs[k].key()
			if c := kv.CompareKeys(key, head); c < 0 {
				m, head, bound, tie = k, key, head, false
			} else if bound == nil || kv.CompareKeys(key, bound) < 0 {
				bound, tie = key, c == 0
			}
		}
		r := &runs[m]
		if !tie {
			// Only m's run holds keys below bound, its head first:
			// append them in bulk, searching from past the head.
			t := r.tables[0]
			upper := t.NumEntries()
			if bound != nil {
				upper = t.SearchFrom(r.i+1, bound)
			}
			emitRange(t, r.i, upper)
			r.i = upper
			continue
		}
		// Several runs hold this user key: keep the newest version, and
		// the older ones are consumed without output.
		newest := r
		for k := range runs {
			if o := &runs[k]; bytes.Equal(o.key(), head) && o.seq() > newest.seq() {
				newest = o
			}
		}
		emitRange(newest.tables[0], newest.i, newest.i+1)
		for k := range runs {
			if o := &runs[k]; o != newest && bytes.Equal(o.key(), head) {
				o.i++
				remaining--
			}
		}
		newest.i++
	}
	if err != nil {
		d.fatal = deverr.Latch(err)
		return
	}
	flushImage()
}

// mergeRun is a merge cursor over a sorted run of non-overlapping
// tables: entry i of tables[0] is its head.
type mergeRun struct {
	tables []*sstable.Table
	i      int
}

// live moves the cursor past exhausted tables and reports whether the
// run has entries left.
func (r *mergeRun) live() bool {
	for len(r.tables) > 0 && r.i >= r.tables[0].NumEntries() {
		r.tables, r.i = r.tables[1:], 0
	}
	return len(r.tables) > 0
}

func (r *mergeRun) key() []byte { return r.tables[0].KeyAt(r.i) }
func (r *mergeRun) seq() uint64 { return r.tables[0].SeqAt(r.i) }

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
// (proportional to progress) and one chunk of write I/O. A finished
// job, committed or aborted, is retired.
func (j *compactionJob) Step(now sim.Duration) (sim.Duration, bool) {
	now, done := j.step(now)
	if done {
		j.retire()
	}
	return now, done
}

func (j *compactionJob) step(now sim.Duration) (sim.Duration, bool) {
	d := j.d
	if d.fatal != nil {
		j.abort()
		return now, true
	}
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
	for i, img := range j.images {
		j.outputs = append(j.outputs, img.Install(j.outFiles[i]))
	}
	// Remove inputs from their levels: a table is this job's input when
	// busy names the job.
	for i, t := range j.inputs {
		if i < j.fromCount {
			d.levelBytes[j.fromLevel] -= t.SizeBytes()
		} else {
			d.levelBytes[j.toLevel] -= t.SizeBytes()
		}
	}
	for _, li := range [...]int{j.fromLevel, j.toLevel} {
		kept := d.levels[li][:0]
		for _, t := range d.levels[li] {
			if d.busy[t.ID] != j {
				kept = append(kept, t)
			}
		}
		d.levels[li] = kept
	}
	for _, t := range j.inputs {
		delete(d.busy, t.ID)
	}
	// Insert outputs sorted by smallest key.
	d.levels[j.toLevel] = insertSorted(d.levels[j.toLevel], j.outputs)
	for _, t := range j.outputs {
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
	// Nothing reads the inputs any more: the job and the levels held
	// their last references (Get and Scan finish inside one call, and
	// the values they return are copies), so their side-index arrays and
	// structs go to the spares the next builders take from.
	for _, t := range j.inputs {
		t.Release()
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
}

// insertSorted places a compaction's outputs in a level kept in
// smallest-key order. The outputs are sorted and span a key range no
// table left in the level overlaps, so they go in at one position.
func insertSorted(level, outputs []*sstable.Table) []*sstable.Table {
	if len(outputs) == 0 {
		return level
	}
	first := outputs[0].Smallest()
	i := sort.Search(len(level), func(k int) bool {
		return kv.CompareKeys(level[k].Smallest(), first) > 0
	})
	return slices.Insert(level, i, outputs...)
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
