package cowtree

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// RecoveryEngine extends Engine with the two hooks recovery needs: the
// engine materializes nodes from their serialized images (its codec)
// and applies replayed journal records (its insert path); the core
// drives the tree walk, free-list reconstruction, leaf-chain rebuild
// and sequence-ordered replay.
type RecoveryEngine interface {
	Engine
	// MaterializeNode parses one on-disk image into a node of the
	// engine's type and registers it (Core.Register plus the engine's own
	// parallel slice). It returns the node's header — Leaf, Serialized
	// and, for an interior node, Children sized to the fanout set; the
	// core fills in Parent, Disk and the child ids — and the on-disk
	// extents of the children in child order (nil for leaves).
	MaterializeNode(data []byte) (*Node, []Extent, error)
	// ApplyRecovered replays one journal record through the engine's
	// insert path (without journaling, CPU costs or eviction),
	// sequence-guarded so stale records never overwrite newer on-disk
	// state. The engine also advances its sequence high-water mark.
	ApplyRecovered(now sim.Duration, r *wal.Record) (sim.Duration, error)
}

// RecoverTree rebuilds the engine's in-memory tree from the checkpoint
// root extent and replays surviving journal segments on top: the tree
// is parsed top-down (extents seen during the walk are live; everything
// else inside the collection file is free space), the block manager's
// free list is reconstructed as the complement, leaves are re-chained
// left-to-right, and journal records are replayed in sequence order. A
// recovered root leaf is admitted to the cache, as a fresh tree's is;
// every other leaf starts non-resident.
func (c *Core) RecoverTree(now sim.Duration, rootExt Extent, eng RecoveryEngine) (sim.Duration, error) {
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
	return c.replayJournals(now, eng)
}

// RecoverBootstrap rebuilds recovery state for a tree that crashed
// before its first checkpoint ever committed: both metadata slots are
// empty or torn, so nothing inside the collection file is live and the
// synced journal is the only durable state. The engine installs a fresh
// empty root first (as in Open); the core then marks the whole file
// free and replays the surviving journal segments onto it. Alternating
// slot writes mean a tree with a committed checkpoint can never lose
// both slots to one torn write, so reaching this path implies there is
// no older checkpoint to roll back to.
func (c *Core) RecoverBootstrap(now sim.Duration, eng RecoveryEngine) (sim.Duration, error) {
	c.rebuildFreeList(nil)
	return c.replayJournals(now, eng)
}

// FinishRecovery closes out either recovery path: a fresh journal, a
// full checkpoint that makes the replayed state durable, and only then
// the removal of the replayed segments, so the next crash finds valid
// metadata and no stale record.
func (c *Core) FinishRecovery(now sim.Duration) (sim.Duration, error) {
	if err := c.StartJournal(); err != nil {
		return now, err
	}
	end, err := c.Checkpoint(now)
	if err != nil {
		return now, err
	}
	if end > now {
		now = end
	}
	return now, c.retireStaleSegments()
}

// loadSubtree reads and parses the node at ext, recursing into children,
// and returns the registered node.
func (c *Core) loadSubtree(now sim.Duration, ext Extent, parent NodeID, eng RecoveryEngine, used *[]Extent) (*Node, sim.Duration, error) {
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

// replayJournals collects every surviving journal segment, replays the
// records in global sequence order through the engine's recovery apply
// path, and remembers the segment names so FinishRecovery can remove
// them once the replayed state is durable again.
func (c *Core) replayJournals(now sim.Duration, eng RecoveryEngine) (sim.Duration, error) {
	var records []wal.Record
	c.segments = c.segments[:0]
	for _, name := range c.fs.List() {
		if !strings.HasPrefix(name, c.cfg.JournalPrefix) {
			continue
		}
		// The checkpoint metadata we recovered from may predate segments
		// that survived on disk (a cut can land after a journal rotation
		// but before the checkpoint that would record it commits). Minting
		// names from the metadata's journal id alone would collide with
		// such a survivor and fail StartJournal with ErrExist — advance the
		// counter past every name actually present.
		if id, err := strconv.ParseUint(name[len(c.cfg.JournalPrefix):], 10, 64); err == nil && id > c.journalID {
			c.journalID = id
		}
		c.segments = append(c.segments, name)
		done, err := wal.Replay(c.fs, name, now, func(r wal.Record) {
			records = append(records, r)
		})
		if err != nil {
			return now, err
		}
		now = done
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Seq < records[j].Seq })
	for i := range records {
		var err error
		now, err = eng.ApplyRecovered(now, &records[i])
		if err != nil {
			return now, err
		}
	}
	return now, nil
}

// retireStaleSegments removes the replayed journal segments, keeping the
// active writer's segment and any recycled segment waiting in the pool.
func (c *Core) retireStaleSegments() error {
	for _, name := range c.segments {
		if c.journal != nil && name == c.journal.Name() {
			continue
		}
		if c.poolTracks(name) {
			continue
		}
		if err := c.fs.Remove(name); err != nil {
			return err
		}
	}
	c.segments = nil
	return nil
}
