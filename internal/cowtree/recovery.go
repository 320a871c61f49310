package cowtree

import (
	"fmt"
	"sort"

	"ptsbench/internal/sim"
)

// recoverTree rebuilds the engine's in-memory tree from the checkpoint
// root extent: the tree is parsed top-down (extents seen during the
// walk are live; everything else inside the collection file is free
// space), the block manager's free list is reconstructed as the
// complement and leaves are re-chained left-to-right. A recovered root
// leaf is admitted to the cache, as a fresh tree's is; every other leaf
// starts non-resident.
func (c *Core) recoverTree(now sim.Duration, rootExt Extent, eng Tree) (sim.Duration, error) {
	used := []Extent{}
	root, now, err := c.loadSubtree(now, rootExt, NilNode, eng, &used)
	if err != nil {
		return now, err
	}
	c.root = root.ID
	if root.Leaf {
		c.Admit(root)
	}
	c.rebuildFreeList(used)
	prev := NilNode
	c.rebuildLeafChain(root, &prev)
	return now, nil
}

// replayJournal replays the surviving journal segments' records in
// sequence order through the engine's recovery apply path; id is the
// segment id the checkpoint metadata recorded (0 without one).
func (c *Core) replayJournal(now sim.Duration, eng Tree, id uint64) (sim.Duration, error) {
	records, now, err := c.journal.Recover(now, id, 0)
	if err != nil {
		return now, err
	}
	for i := range records {
		c.NoteSeq(records[i].Seq)
		if now, err = eng.ApplyRecovered(now, &records[i]); err != nil {
			return now, err
		}
	}
	return now, nil
}

// finishRecovery closes out recovery: a fresh journal, a full
// checkpoint that makes the replayed state durable, and only then the
// removal of the replayed segments, so the next crash finds valid
// metadata and no stale record.
func (c *Core) finishRecovery(now sim.Duration) (sim.Duration, error) {
	if err := c.journal.Start(); err != nil {
		return now, err
	}
	end, err := c.Checkpoint(now)
	if err != nil {
		return now, err
	}
	if end > now {
		now = end
	}
	return now, c.journal.Retire()
}

// loadSubtree reads and parses the node at ext, recursing into children,
// and returns the registered node.
func (c *Core) loadSubtree(now sim.Duration, ext Extent, parent NodeID, eng Tree, used *[]Extent) (*Node, sim.Duration, error) {
	if ext.Pages <= 0 {
		return nil, now, fmt.Errorf("%s: empty extent in tree walk", c.cfg.Name)
	}
	buf := make([]byte, int(ext.Pages)*c.fs.PageSize())
	now, err := c.file.ReadAt(now, ext.Start, int(ext.Pages), buf)
	if err != nil {
		return nil, now, err
	}
	n, childExts, err := eng.MaterializeNode(buf)
	if err != nil {
		return nil, now, fmt.Errorf("%w at extent %d+%d", err, ext.Start, ext.Pages)
	}
	// Recompute the counter from disk state, buffered messages included.
	if n.Leaf {
		for i := range n.Entries {
			c.NoteSeq(n.Entries[i].Seq())
		}
	} else {
		for _, buf := range n.Buf.Msgs {
			for i := range buf {
				c.NoteSeq(buf[i].Seq())
			}
		}
	}
	n.Parent = parent
	n.Disk = ext
	*used = append(*used, ext)
	for i, ce := range childExts {
		child, done, err := c.loadSubtree(now, ce, n.ID, eng, used)
		if err != nil {
			return nil, now, err
		}
		now = done
		n.Children[i] = child.ID
	}
	return n, now, nil
}

// rebuildFreeList reconstructs the block manager's free list as the
// complement of the extents the tree references.
func (c *Core) rebuildFreeList(used []Extent) {
	sort.Slice(used, func(i, j int) bool { return used[i].Start < used[j].Start })
	var cursor int64
	for _, e := range used {
		if e.Start > cursor {
			c.extents.release(Extent{Start: cursor, Pages: e.Start - cursor})
		}
		if end := e.Start + e.Pages; end > cursor {
			cursor = end
		}
	}
	if total := c.file.SizePages(); total > cursor {
		c.extents.release(Extent{Start: cursor, Pages: total - cursor})
	}
}

// rebuildLeafChain links the leaves under n left-to-right by walking
// the tree in order; *prev is the last leaf linked so far.
func (c *Core) rebuildLeafChain(n *Node, prev *NodeID) {
	if n.Leaf {
		if *prev != NilNode {
			c.nodes[*prev].Next = n.ID
		}
		*prev = n.ID
		return
	}
	for _, child := range n.Children {
		c.rebuildLeafChain(c.nodes[child], prev)
	}
}
