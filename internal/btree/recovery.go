package btree

import (
	"bytes"
	"errors"
	"fmt"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/extfs"
	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// Recovery — metadata selection, the top-down tree walk, free-list
// reconstruction, leaf-chain rebuild, sequence-ordered journal replay,
// the closing checkpoint and stale-segment retirement — lives in
// internal/cowtree. This file provides the two engine-specific hooks:
// page materialization (the codec) and the journal-record apply path.

// Recover reopens a B+Tree from its on-device state: the newest
// checkpoint metadata locates the root, the tree is parsed top-down, and
// surviving journal records are replayed on top (sequence-guarded, so a
// replay never regresses a newer on-disk value). It requires content
// mode. The returned time includes all recovery I/O.
func Recover(fs *extfs.FS, cfg Config, now sim.Duration) (*Tree, sim.Duration, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, now, err
	}
	if !cfg.Content {
		return nil, now, fmt.Errorf("btree: Recover requires content mode")
	}
	st, now, err := cowtree.ReadMeta(fs, "wtmeta", metaMagic, "btree", now)
	if err != nil {
		return nil, now, err
	}
	if st == nil {
		// The tree died before its first checkpoint committed: the
		// synced journal is the only durable state. Rebuild from an
		// empty root and replay it (see cowtree.RecoverBootstrap).
		return bootstrap(fs, cfg, now)
	}
	f, err := fs.Open("collection.wt")
	if err != nil {
		return nil, now, fmt.Errorf("btree: collection file missing: %w", err)
	}
	t := newTree(fs, f, cfg)
	t.core.SetJournalState(st.JournalID, st.Gen)
	// Rebuild the tree from the root (extents seen during the walk are
	// live; everything else inside the file is free space), then replay
	// the surviving journal segments, newest records winning. The
	// sequence counter is recomputed from what is actually on disk
	// (MaterializeNode tracks the max leaf-entry sequence, ApplyRecovered
	// advances it per replayed record) rather than trusted from the
	// metadata, so it can be checked against the checkpoint floor below.
	if now, err = t.core.RecoverTree(now, st.Root, t); err != nil {
		return nil, now, err
	}
	// The metadata's floor promises every update with seq <= st.Seq is in
	// the checkpointed tree image (tombstoned entries included — deletes
	// keep their entry until overwritten). Recovering less means node
	// writes the device acknowledged before the checkpoint barrier never
	// persisted: the device lied about fsync. Refuse loudly rather than
	// silently serving the stale tree.
	if t.seq < st.Seq {
		return nil, now, fmt.Errorf(
			"btree: recovered sequence %d below checkpoint floor %d: device dropped acknowledged writes (fsync lie)",
			t.seq, st.Seq)
	}
	if now, err = t.core.FinishRecovery(now); err != nil {
		return nil, now, err
	}
	return t, now, nil
}

// bootstrap recovers with no committed checkpoint: an empty tree plus
// journal replay, closed out by the first real checkpoint so the next
// crash finds valid metadata.
func bootstrap(fs *extfs.FS, cfg Config, now sim.Duration) (*Tree, sim.Duration, error) {
	f, err := fs.Open("collection.wt")
	if err != nil {
		if f, err = fs.Create("collection.wt"); err != nil {
			return nil, now, err
		}
	}
	t := newTree(fs, f, cfg)
	t.newRootLeaf()
	if now, err = t.core.RecoverBootstrap(now, t); err != nil {
		return nil, now, err
	}
	if now, err = t.core.FinishRecovery(now); err != nil {
		return nil, now, err
	}
	return t, now, nil
}

// MaterializeNode implements cowtree.RecoveryEngine: parse one on-disk
// image, register the page and return its child extents for the walk.
func (t *Tree) MaterializeNode(data []byte) (*cowtree.Node, []cowtree.Extent, error) {
	p, ok := parsePage(data)
	if !ok {
		return nil, nil, errors.New("btree: corrupt page")
	}
	if p.Leaf {
		var sz int
		for i := range p.entries {
			sz += p.entries[i].bytes()
			if s := p.entries[i].seq; s > t.seq {
				t.seq = s // recompute the counter from disk state
			}
		}
		p.Serialized = pageHeaderBytes + sz
	} else {
		p.recomputeSerialized()
		p.refreshSepCache()
	}
	t.register(p)
	childExts := p.childExtents
	p.childExtents = nil
	return &p.Node, childExts, nil
}

// ApplyRecovered implements cowtree.RecoveryEngine: replay one journal
// record through the insert path (without journaling, CPU costs or
// eviction), guarded by sequence so stale records never overwrite newer
// on-disk state.
func (t *Tree) ApplyRecovered(now sim.Duration, r *wal.Record) (sim.Duration, error) {
	if r.Seq > t.seq {
		t.seq = r.Seq
	}
	leaf := t.descend(r.Key)
	i := leaf.search(r.Key)
	if i < len(leaf.entries) && bytes.Equal(leaf.entries[i].key, r.Key) && leaf.entries[i].seq >= r.Seq {
		return now, nil // on-disk state is as new or newer
	}
	vlen := r.ValueLen
	if r.Value != nil {
		vlen = len(r.Value)
	}
	delta := leaf.insertLeaf(&t.mem, r.Key, r.Value, vlen, r.Seq, r.Deleted)
	if leaf.Resident {
		t.core.Resize(delta)
	}
	t.core.MarkDirty(&leaf.Node)
	if leaf.Serialized > t.cfg.LeafPageBytes {
		t.splitLeaf(leaf)
	}
	return now, nil
}
