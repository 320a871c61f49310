package cowtree

import (
	"slices"

	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// Job writes all nodes that were dirty when the checkpoint began — for a
// Bε-tree that includes interior nodes, whose images carry their message
// buffers — then retires the journal segment that preceded it. The
// journal is rotated at job creation (foreground), so updates arriving
// during the checkpoint land in the new segment.
type Job struct {
	c           *Core
	ids         []NodeID
	keys        []uint64 // packed (depth desc, id asc) sort keys, reused
	idx         int
	oldJournal  *wal.Writer
	pendingMark int // deferred-release prefix safe to free at commit
	// snapSeq is the engine's sequence high-water mark when the dirty set
	// was snapshotted. Every update with seq <= snapSeq dirtied a node
	// before the snapshot, so the snapshot closure contains it and the
	// committed tree image covers it — making snapSeq a recovery floor:
	// a recovered tree whose max sequence falls below the metadata's
	// floor proves node writes the device acknowledged never persisted.
	snapSeq uint64
}

// NewCheckpointJob snapshots the dirty set — expanded to the ancestor
// closure — and rotates the journal. It returns nil if there is nothing
// to write.
//
// The closure is load-bearing for recovery: writing a node moves it on
// disk, so every ancestor's serialized child references change and the
// whole root-to-node spine must be rewritten within the SAME
// checkpoint. Without it, a checkpoint whose dirty snapshot contains
// only a leaf would commit metadata pointing at the old root image
// (whose refs still name the leaf's old extent) while recycling the
// journal that held the leaf's updates — data loss on recovery, and
// corruption once the old extent is reused.
func (c *Core) NewCheckpointJob() (*Job, error) {
	if c.dirtyCount == 0 {
		return nil, nil
	}
	job := c.getJob()
	job.pendingMark = c.extents.pendingMark()
	job.snapSeq = c.eng.Seq()
	c.epoch++
	stamp := c.epoch
	// MarkDirty appends to the log this loop ranges over. The range
	// header is evaluated once, so the appended ancestors — stamped
	// already — are never revisited; the log is truncated only afterwards.
	for _, id := range c.dirtyIDs {
		if !c.dirty[id] || c.stampInJob(id, stamp) {
			continue
		}
		job.ids = append(job.ids, id)
		for p := c.nodes[id].Parent; p != NilNode && !c.stampInJob(p, stamp); p = c.nodes[p].Parent {
			c.MarkDirty(c.nodes[p]) // ancestors must be written too
			job.ids = append(job.ids, p)
		}
	}
	c.dirtyIDs = c.dirtyIDs[:0]
	// Bottom-up order: leaves first, then interior nodes deepest-first,
	// the root last. Writing a child records its new extent before its
	// parent's image is serialized, so a completed checkpoint is a
	// consistent tree.
	c.sortBottomUp(job)
	if c.journal != nil {
		job.oldJournal = c.journal
		w, err := c.wrapJournal()
		if err != nil {
			return nil, err
		}
		c.journal = w
	}
	return job, nil
}

// getJob takes a retired job from the pool (its slices keep their
// capacity) or allocates a fresh one. Jobs return to the pool at commit;
// overlapping jobs — only reachable by holding an unsubmitted job while
// another triggers — simply each draw their own.
func (c *Core) getJob() *Job {
	if n := len(c.jobPool); n > 0 {
		j := c.jobPool[n-1]
		c.jobPool = c.jobPool[:n-1]
		return j
	}
	return &Job{c: c}
}

// putJob retires a completed job's scratch back to the pool.
func (c *Core) putJob(j *Job) {
	j.ids = j.ids[:0]
	j.keys = j.keys[:0]
	j.idx = 0
	j.oldJournal = nil
	j.snapSeq = 0
	c.jobPool = append(c.jobPool, j)
}

// stampInJob stamps id as belonging to this snapshot epoch, growing the
// id-indexed scratch as needed; it reports whether the id was already
// stamped. The epoch stamp replaces the per-job membership map the old
// per-engine implementations allocated on every checkpoint.
func (c *Core) stampInJob(id NodeID, epoch uint32) bool {
	if int(id) >= len(c.inJob) {
		grown := make([]uint32, int(id)*2+16)
		copy(grown, c.inJob)
		c.inJob = grown
	}
	if c.inJob[id] == epoch {
		return true
	}
	c.inJob[id] = epoch
	return false
}

// depthOf returns a node's distance from the root (root = 0).
func (c *Core) depthOf(id NodeID) uint32 {
	d := uint32(0)
	for p := c.nodes[id].Parent; p != NilNode; p = c.nodes[p].Parent {
		d++
	}
	return d
}

// sortBottomUp orders the job's node ids deepest-first (ties by id for
// determinism); since leaves are the deepest layer they come first and
// the root comes last. The (depth desc, id asc) key is a total order
// over distinct ids packed into one uint64, so a plain slices.Sort
// yields the same deterministic sequence the old two-key comparison
// sort produced — without a comparison closure or a per-job depth map.
func (c *Core) sortBottomUp(job *Job) {
	keys := job.keys
	for _, id := range job.ids {
		keys = append(keys, uint64(^c.depthOf(id))<<32|uint64(id))
	}
	slices.Sort(keys)
	job.keys = keys
	for i, k := range keys {
		job.ids[i] = NodeID(k & 0xFFFFFFFF)
	}
}

// Step implements sim.Job: write nodes until the chunk budget is used.
func (j *Job) Step(now sim.Duration) (sim.Duration, bool) {
	c := j.c
	if c.fatal != nil {
		return now, true
	}
	budget := c.cfg.ChunkPages
	ps := c.fs.PageSize()
	for budget > 0 && j.idx < len(j.ids) {
		id := j.ids[j.idx]
		j.idx++
		if !c.dirty[id] {
			continue // evicted and written in the meantime
		}
		n := c.nodes[id]
		// Foreground splits that ran since the snapshot may have hung
		// children under the node that this job has never written (or
		// even never-written brand-new nodes with a zero extent).
		// Serializing its child references without writing them first
		// would commit an image pointing at stale or nonexistent extents
		// — an unrecoverable tree. Flush the node's dirty/unwritten
		// descendants before the node itself.
		var err error
		var extra int
		now, extra, err = c.writeSubtreeClean(now, n)
		if err != nil {
			c.Fail(err)
			return now, true
		}
		budget -= extra
		now, err = c.Write(now, n)
		if err != nil {
			c.Fail(err)
			return now, true
		}
		c.io.CheckpointPgs++
		budget -= (n.Serialized + ps - 1) / ps
	}
	if j.idx < len(j.ids) {
		return now, false
	}
	// Commit. A foreground split may have grown a NEW root while the job
	// ran — an ancestor of every snapshot node, so neither the snapshot
	// closure nor writeSubtreeClean (descendants only) wrote it. Without
	// an on-disk root image writeMeta would decline, yet the commit below
	// would still release the previous checkpoint's extents and recycle
	// the journal — destroying the only durable copies of recent updates.
	// Write the current root (and its unwritten spine) first, so the
	// metadata always points at a complete current tree. A root without
	// an extent is dirty (see Core.dirty).
	var err error
	if c.dirty[c.root] {
		root := c.nodes[c.root]
		// writeSubtreeClean counts the descendants it writes itself.
		if now, _, err = c.writeSubtreeClean(now, root); err != nil {
			c.Fail(err)
			return now, true
		}
		if now, err = c.Write(now, root); err != nil {
			c.Fail(err)
			return now, true
		}
		c.io.CheckpointPgs++
	}
	// Write the checkpoint metadata (root location), release the previous
	// checkpoint's extents, sync, and recycle the old journal segment
	// (its updates are now covered by the checkpoint). Recycling keeps
	// the journal on a fixed set of LBAs, like real log pre-allocation.
	//
	// The barrier orders the commit against power cuts: every node image
	// must be durable BEFORE the metadata that names its extents can be,
	// or a cut could leave a durable root pointing at torn children.
	// The fs.Sync below is itself a barrier, ordering the metadata write
	// before the journal recycle the same way.
	if err = c.fs.Barrier(); err != nil {
		c.Fail(err)
		return now, true
	}
	if now, err = c.writeMeta(now, j.snapSeq); err != nil {
		c.Fail(err)
		return now, true
	}
	c.extents.commitPendingPrefix(j.pendingMark)
	if now, err = c.fs.Sync(now); err != nil {
		c.Fail(err)
		return now, true
	}
	if j.oldJournal != nil {
		now, err = j.oldJournal.Recycle(now)
		if err != nil {
			c.Fail(err)
			return now, true
		}
		c.journalPool = append(c.journalPool, j.oldJournal)
		j.oldJournal = nil
	}
	c.io.Checkpoints++
	c.putJob(j)
	return now, true
}

// writeSubtreeClean writes every dirty descendant of a node (deepest
// first), returning the pages written. Nodes registered by splits that
// ran while the checkpoint was in flight are not in the job's snapshot,
// and their ancestors' images must not be serialized before they have
// on-disk extents. A never-written node is dirty (see Core.dirty), so
// the dirty bitmap answers for both: the scan covers every written
// interior node's full fanout and almost always finds nothing, reading
// one byte per child and dereferencing only the children it writes.
// Writing a child can only re-dirty its PARENT, never a sibling, and no
// foreground work runs inside a step, so the children are tested as the
// loop reaches them.
func (c *Core) writeSubtreeClean(now sim.Duration, n *Node) (sim.Duration, int, error) {
	ps := c.fs.PageSize()
	pages := 0
	for _, id := range n.Children {
		if !c.dirty[id] {
			continue
		}
		child := c.nodes[id]
		var err error
		var extra int
		now, extra, err = c.writeSubtreeClean(now, child)
		if err != nil {
			return now, pages, err
		}
		pages += extra
		now, err = c.Write(now, child)
		if err != nil {
			return now, pages, err
		}
		c.io.CheckpointPgs++
		pages += (child.Serialized + ps - 1) / ps
	}
	return now, pages, nil
}
