package betree

import (
	"bytes"
	"fmt"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/extalloc"
	"ptsbench/internal/extfs"
	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// The recovery skeleton — metadata selection, the top-down tree walk,
// free-list reconstruction, leaf-chain rebuild, sequence-ordered journal
// replay and stale-segment retirement — lives in internal/cowtree. This
// file provides the engine-specific hooks: node materialization (the
// codec, interior buffers included) and the journal-record apply path.

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
	t := &Tree{
		cfg:       cfg,
		pivotMax:  cfg.pivotBudget(),
		bufferMax: cfg.bufferBudget(),
		fs:        fs,
		file:      f,
		bm:        extalloc.New(f, int64(cfg.LeafPageBytes/fs.PageSize())*16),
		nodes:     make([]*node, 1, 64), // index 0 is nilNode
	}
	t.core.Init(t, fs, f, t.bm, coreConfig(cfg))
	t.core.SetJournalState(st.JournalID, st.Gen)
	// Rebuild the tree (interior buffers included) from the root, then
	// replay the surviving journal segments, newest records winning. The
	// sequence counter is recomputed from disk state (MaterializeNode
	// tracks the max sequence over leaf entries AND buffered messages,
	// ApplyRecovered advances it per replayed record) rather than trusted
	// from the metadata, so it can be checked against the floor below.
	now, err = t.core.RecoverTree(now, st.Root, t, func(id cowtree.NodeID) {
		t.root = id
		if root := t.nodes[id]; root.leaf {
			t.admit(root)
		}
	})
	if err != nil {
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
	if err := t.core.StartJournal(); err != nil {
		return nil, now, err
	}
	if end, err := t.FlushAll(now); err != nil {
		return nil, now, err
	} else if end > now {
		now = end
	}
	if err := t.core.RetireStaleSegments(); err != nil {
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
	t := &Tree{
		cfg:       cfg,
		pivotMax:  cfg.pivotBudget(),
		bufferMax: cfg.bufferBudget(),
		fs:        fs,
		file:      f,
		bm:        extalloc.New(f, int64(cfg.LeafPageBytes/fs.PageSize())*16),
		nodes:     make([]*node, 1, 64), // index 0 is nilNode
	}
	t.core.Init(t, fs, f, t.bm, coreConfig(cfg))
	rootLeaf := t.newNode(true)
	rootLeaf.parent = nilNode
	t.root = rootLeaf.id
	t.admit(rootLeaf)
	if now, err = t.core.RecoverBootstrap(now, t); err != nil {
		return nil, now, err
	}
	if err := t.core.StartJournal(); err != nil {
		return nil, now, err
	}
	if end, err := t.FlushAll(now); err != nil {
		return nil, now, err
	} else if end > now {
		now = end
	}
	if err := t.core.RetireStaleSegments(); err != nil {
		return nil, now, err
	}
	return t, now, nil
}

// MaterializeNode implements cowtree.RecoveryEngine: parse one on-disk
// image (interior buffers included), register the node and return its
// child extents for the walk.
func (t *Tree) MaterializeNode(data []byte, ext cowtree.Extent, parent cowtree.NodeID) (cowtree.NodeID, []cowtree.Extent, error) {
	n, ok := parseNode(data)
	if !ok {
		return nilNode, nil, fmt.Errorf("betree: corrupt node at extent %d+%d", ext.Start, ext.Pages)
	}
	t.nextID++
	n.id = t.nextID
	n.parent = parent
	n.disk = ext
	n.everOnDisk = true
	if n.leaf {
		var sz int
		for i := range n.entries {
			sz += n.entries[i].bytes()
			if s := n.entries[i].seq; s > t.seq {
				t.seq = s // recompute the counter from disk state
			}
		}
		n.serialized = pageHeaderBytes + sz
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
	t.registerNode(n)
	childExts := n.childExtents
	n.childExtents = nil
	return n.id, childExts, nil
}

// LinkChild implements cowtree.RecoveryEngine.
func (t *Tree) LinkChild(parent cowtree.NodeID, i int, child cowtree.NodeID) {
	t.nodes[parent].children[i] = child
}

// SetNext implements cowtree.RecoveryEngine (the left-to-right leaf
// chain scans follow).
func (t *Tree) SetNext(id, next cowtree.NodeID) { t.nodes[id].next = next }

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
	n := t.nodes[t.root]
	for !n.leaf {
		ci := n.childFor(r.Key)
		if m := n.bufGet(ci, r.Key); m != nil && m.seq >= r.Seq {
			return now, nil
		}
		n = t.nodes[n.children[ci]]
	}
	if i := n.search(r.Key); i < len(n.entries) &&
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
