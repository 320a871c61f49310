package betree

import (
	"bytes"
	"errors"
	"fmt"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// Recovery — metadata selection, the top-down tree walk, free-list
// reconstruction, leaf-chain rebuild, sequence-ordered journal replay,
// the closing checkpoint and stale-segment retirement — lives in
// internal/cowtree. This file provides the two engine-specific hooks:
// node materialization (the codec, interior buffers included) and the
// journal-record apply path.

// Recover reopens a Bε-tree from its on-device state: the newest
// checkpoint metadata locates the root, the tree — interior buffers
// included — is parsed top-down, and surviving journal records are
// replayed on top (sequence-guarded, so a replay never regresses a
// newer on-disk value). It requires content mode. The returned time
// includes all recovery I/O.
func Recover(fs *extfs.FS, cfg Config, now sim.Duration) (*Tree, sim.Duration, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, now, err
	}
	if !cfg.Content {
		return nil, now, fmt.Errorf("betree: Recover requires content mode")
	}
	st, now, err := cowtree.ReadMeta(fs, "bemeta", metaMagic, "betree", now)
	if err != nil {
		return nil, now, err
	}
	if st == nil {
		// The tree died before its first checkpoint committed: the
		// synced journal is the only durable state. Rebuild from an
		// empty root and replay it (see cowtree.RecoverBootstrap).
		return bootstrap(fs, cfg, now)
	}
	f, err := fs.Open("collection.be")
	if err != nil {
		return nil, now, fmt.Errorf("betree: collection file missing: %w", err)
	}
	t := newTree(fs, f, cfg)
	t.core.SetJournalState(st.JournalID, st.Gen)
	// Rebuild the tree (interior buffers included) from the root, then
	// replay the surviving journal segments, newest records winning. The
	// sequence counter is recomputed from disk state (MaterializeNode
	// tracks the max sequence over leaf entries AND buffered messages,
	// ApplyRecovered advances it per replayed record) rather than trusted
	// from the metadata, so it can be checked against the floor below.
	if now, err = t.core.RecoverTree(now, st.Root, t); err != nil {
		return nil, now, err
	}
	// The metadata's floor promises every update with seq <= st.Seq is in
	// the checkpointed tree image — as a leaf entry or a message still
	// buffered in an interior node (tombstones included in both forms).
	// Recovering less means node writes the device acknowledged before
	// the checkpoint barrier never persisted: the device lied about
	// fsync. Refuse loudly rather than silently serving the stale tree.
	if t.seq < st.Seq {
		return nil, now, fmt.Errorf(
			"betree: recovered sequence %d below checkpoint floor %d: device dropped acknowledged writes (fsync lie)",
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
	f, err := fs.Open("collection.be")
	if err != nil {
		if f, err = fs.Create("collection.be"); err != nil {
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
// image (interior buffers included), register the node and return its
// child extents for the walk.
func (t *Tree) MaterializeNode(data []byte) (*cowtree.Node, []cowtree.Extent, error) {
	n, ok := parseNode(data)
	if !ok {
		return nil, nil, errors.New("betree: corrupt node")
	}
	if n.Leaf {
		var sz int
		for i := range n.entries {
			sz += n.entries[i].bytes()
			if s := n.entries[i].seq; s > t.seq {
				t.seq = s // recompute the counter from disk state
			}
		}
		n.Serialized = pageHeaderBytes + sz
	} else {
		for _, buf := range n.bufs {
			for i := range buf {
				if s := buf[i].seq; s > t.seq {
					t.seq = s // buffered messages count toward the max too
				}
			}
		}
		n.recomputeSerialized()
		n.refreshSepCache()
	}
	t.register(n)
	childExts := n.childExtents
	n.childExtents = nil
	return &n.Node, childExts, nil
}

// ApplyRecovered implements cowtree.RecoveryEngine: replay one journal
// record through the message path (without journaling, CPU costs or
// eviction), threading the recovery clock so leaf loads triggered by
// flush cascades are charged. A record is dropped when ANY version along
// the key's root-to-leaf path — a buffered message or the leaf entry —
// is at least as new: inserting an older message at the root would
// shadow the newer deeper version on reads.
func (t *Tree) ApplyRecovered(now sim.Duration, r *wal.Record) (sim.Duration, error) {
	if r.Seq > t.seq {
		t.seq = r.Seq
	}
	n := t.nodes[t.core.Root()]
	target := kv.NewTarget(r.Key)
	for !n.Leaf {
		ci := n.childFor(target)
		if m := n.bufGet(ci, target); m != nil && m.seq >= r.Seq {
			return now, nil
		}
		n = t.nodes[n.Children[ci]]
	}
	if i := n.search(target); i < len(n.entries) &&
		bytes.Equal(n.entries[i].key, r.Key) && n.entries[i].seq >= r.Seq {
		return now, nil
	}
	vlen := r.ValueLen
	if r.Value != nil {
		vlen = len(r.Value)
	}
	// A record's key and value are separate slices, so it enters as an
	// unowned message and the node insert fuses them (see mem.own).
	return t.apply(now, makeMessage(r.Key, r.Seq, vlen, r.Deleted), r.Value)
}
