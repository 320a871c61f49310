package lsm

import (
	"slices"

	"ptsbench/internal/deverr"
	"ptsbench/internal/extfs"
	"ptsbench/internal/sim"
	"ptsbench/internal/sstable"
)

// flushJob writes one immutable memtable out as an L0 table, in chunks,
// on the flush worker. The job returns to its DB when it finishes, and
// its immutable with it once the commit has dropped it from d.imm.
type flushJob struct {
	d       *DB
	im      *immutable
	img     *sstable.FileImage
	file    *extfs.File
	written int64
}

// Step implements sim.Job. A finished job, committed or aborted, goes
// back to its DB for the next rotation.
func (j *flushJob) Step(now sim.Duration) (sim.Duration, bool) {
	now, done := j.step(now)
	if done {
		d := j.d
		*j = flushJob{}
		d.flushes.Put(j)
	}
	return now, done
}

func (j *flushJob) step(now sim.Duration) (sim.Duration, bool) {
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
	d.levels[0] = slices.Insert(d.levels[0], 0, t)
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
	im := j.im
	d.imm = slices.DeleteFunc(d.imm, func(o *immutable) bool { return o == im })
	im.mt.Release()
	now, err = d.log.Recycle(now, im.walW)
	*im = immutable{}
	d.imms.Put(im)
	if err != nil {
		d.fatal = deverr.Latch(err)
		return now, true
	}
	d.ioStats.Flushes++
	return now, true
}

// abort removes a partially written output file. The immutable stays
// in d.imm.
func (j *flushJob) abort() {
	if j.file != nil {
		_ = j.d.fs.Remove(j.file.Name())
		j.file = nil
	}
}
