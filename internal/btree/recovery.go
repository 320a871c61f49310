package btree

import (
	"errors"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// Recovery — metadata selection, the top-down tree walk, free-list
// reconstruction, leaf-chain rebuild, sequence-ordered journal replay,
// the checkpoint-floor check, the closing checkpoint and stale-segment
// retirement — lives in internal/cowtree, as do the checkpoint
// discipline and the page image. This file provides the two
// engine-specific hooks: page materialization (the image under
// pageMagic) and the journal-record apply path.

// Recover reopens a B+Tree from its on-device state (see
// cowtree.Recover). It requires content mode.
func Recover(fs *extfs.FS, cfg Config, now sim.Duration) (*Tree, sim.Duration, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, now, err
	}
	return cowtree.Recover(fs, naming, cfg.Tuning, now, newTree(cfg))
}

// MaterializeNode implements cowtree.Tree: parse one on-disk
// image, register the page and return its child extents for the walk.
func (t *Tree) MaterializeNode(data []byte) (*cowtree.Node, []cowtree.Extent, error) {
	p := &cowtree.Node{}
	childExts, _, ok := p.ParseImage(data, pageMagic)
	if !ok {
		return nil, nil, errors.New("btree: corrupt page")
	}
	t.Core.Register(p)
	return p, childExts, nil
}

// ApplyRecovered implements cowtree.Tree: replay one journal
// record through the insert path (without journaling, CPU costs or
// eviction), guarded by sequence so stale records never overwrite newer
// on-disk state.
func (t *Tree) ApplyRecovered(now sim.Duration, r *wal.Record) (sim.Duration, error) {
	target := kv.NewTarget(r.Key)
	leaf := t.descend(target)
	if e := cowtree.FindRecord(leaf.Entries, target); e != nil && e.Seq() >= r.Seq {
		return now, nil // on-disk state is as new or newer
	}
	vlen := r.ValueLen
	if r.Value != nil {
		vlen = len(r.Value)
	}
	// A record's key and value are the journal reader's bytes, so it
	// enters as an unowned record (see cowtree.RecordArena.Own).
	delta := t.Core.InsertLeaf(leaf, cowtree.MakeRecord(r.Key, r.Seq, vlen, r.Deleted), r.Key, r.Value)
	if leaf.Resident {
		t.Core.Resize(delta)
	}
	t.Core.MarkDirty(leaf)
	if t.Core.LeafOverfull(leaf) {
		t.splitLeaf(leaf)
	}
	return now, nil
}
