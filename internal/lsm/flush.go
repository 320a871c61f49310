package lsm

import (
	"ptsbench/internal/deverr"
	"ptsbench/internal/extfs"
	"ptsbench/internal/sim"
	"ptsbench/internal/sstable"
)

// flushJob writes one immutable memtable out as an L0 table, in chunks,
// on the flush worker.
type flushJob struct {
	d       *DB
	im      *immutable
	img     *sstable.FileImage
	file    *extfs.File
	written int64
}

func newFlushJob(d *DB, im *immutable) *flushJob {
	return &flushJob{d: d, im: im}
}

// Step implements sim.Job.
func (j *flushJob) Step(now sim.Duration) (sim.Duration, bool) {
	d := j.d
	if d.fatal != nil {
		return now, true
	}
	if j.img == nil {
		// First step: lay out the table and create its file.
		b := sstable.NewBuilder(d.fs.PageSize(), d.cfg.BlockBytes, d.cfg.Content, j.im.mt.Len(), &d.spares)
		it := j.im.mt.Iterator()
		for it.Next() {
			if err := b.Add(it.Entry()); err != nil {
				d.fatal = deverr.Latch(err)
				return now, true
			}
		}
		d.nextFileID++
		j.img = b.Finish(d.nextFileID)
		f, err := d.fs.Create(sstFileName(d.nextFileID))
		if err != nil {
			d.fatal = deverr.Latch(err)
			return now, true
		}
		j.file = f
	}
	var done bool
	var err error
	now, j.written, done, err = j.img.WriteChunk(now, j.file, j.written, d.cfg.ChunkPages)
	if err != nil {
		d.fatal = deverr.Latch(err)
		j.abort()
		return now, true
	}
	if !done {
		return now, false
	}
	// Commit: sync metadata, install in L0 (newest first), persist the
	// new version in the manifest, release the memtable's arena chunks
	// and its WAL segment.
	if now, err = d.fs.Sync(now); err != nil {
		d.fatal = deverr.Latch(err)
		j.abort()
		return now, true
	}
	t := j.img.Install(j.file)
	d.levels[0] = append([]*sstable.Table{t}, d.levels[0]...)
	d.levelBytes[0] += t.SizeBytes()
	d.shapeL0++ // flushes touch only L0; the deep picker's memo survives
	if j.im.maxSeq > d.flushedSeq {
		d.flushedSeq = j.im.maxSeq
	}
	if now, err = d.writeManifest(now); err != nil {
		d.fatal = deverr.Latch(err)
		return now, true
	}
	// The manifest naming the new table (and carrying the flushedSeq mark
	// that retires this memtable's WAL records) must be durable before the
	// segment is recycled — a cut between the two would otherwise lose the
	// records to the zeroed log while the older manifest slot still omits
	// the table.
	if err := d.fs.Barrier(); err != nil {
		d.fatal = deverr.Latch(err)
		return now, true
	}
	for i, im := range d.imm {
		if im == j.im {
			d.imm = append(d.imm[:i], d.imm[i+1:]...)
			break
		}
	}
	j.im.mt.Release()
	if now, err = d.log.Recycle(now, j.im.walW); err != nil {
		d.fatal = deverr.Latch(err)
		return now, true
	}
	d.ioStats.Flushes++
	return now, true
}

// abort removes a partially written output file.
func (j *flushJob) abort() {
	if j.file != nil {
		_ = j.d.fs.Remove(j.file.Name())
		j.file = nil
	}
}
