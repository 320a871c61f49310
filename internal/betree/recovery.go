package betree

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
// discipline and the node image. This file provides the two
// engine-specific hooks: node materialization (the image, interior
// buffers included) and the journal-record apply path.

// Recover reopens a Bε-tree from its on-device state, interior buffers
// included (see cowtree.Recover). It requires content mode.
func Recover(fs *extfs.FS, cfg Config, now sim.Duration) (*Tree, sim.Duration, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, now, err
	}
	return cowtree.Recover(fs, naming, cfg.Tuning, now, newTree(cfg))
}

// parseNode reconstructs a node from its image: the shared image under
// nodeMagic and, for an interior, the buffered messages dealt out to its
// child buffers. It returns the child extents in child order (the
// children get ids as recovery loads them).
func parseNode(data []byte) (*cowtree.Node, []cowtree.Extent, bool) {
	n := &cowtree.Node{}
	exts, off, ok := n.ParseImage(data, nodeMagic)
	if ok && !n.Leaf {
		ok = n.ParseBuffers(data, off)
	}
	return n, exts, ok
}

// MaterializeNode implements cowtree.Tree: parse one on-disk
// image (interior buffers included), register the node and return its
// child extents for the walk.
func (t *Tree) MaterializeNode(data []byte) (*cowtree.Node, []cowtree.Extent, error) {
	n, childExts, ok := parseNode(data)
	if !ok {
		return nil, nil, errors.New("betree: corrupt node")
	}
	t.Core.Register(n)
	return n, childExts, nil
}

// ApplyRecovered implements cowtree.Tree: replay one journal
// record through the message path (without journaling, CPU costs or
// eviction), threading the recovery clock so leaf loads triggered by
// flush cascades are charged. A record is dropped when ANY version along
// the key's root-to-leaf path — a buffered message or the leaf entry —
// is at least as new: inserting an older message at the root would
// shadow the newer deeper version on reads.
func (t *Tree) ApplyRecovered(now sim.Duration, r *wal.Record) (sim.Duration, error) {
	n := t.Core.Node(t.Core.Root())
	target := kv.NewTarget(r.Key)
	for !n.Leaf {
		ci := n.ChildFor(target)
		if m := n.Buf.Get(ci, target); m != nil && m.Seq() >= r.Seq {
			return now, nil
		}
		n = t.Core.Node(n.Children[ci])
	}
	if e := cowtree.FindRecord(n.Entries, target); e != nil && e.Seq() >= r.Seq {
		return now, nil
	}
	vlen := r.ValueLen
	if r.Value != nil {
		vlen = len(r.Value)
	}
	// A record's key and value are the journal reader's bytes, so it
	// enters as an unowned message (see cowtree.RecordArena.Own).
	return t.apply(now, cowtree.MakeRecord(r.Key, r.Seq, vlen, r.Deleted), r.Key, r.Value)
}
