package btree

import (
	"slices"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/engine"
	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// metaMagic tags the checkpoint metadata files ("WTMT"), pageMagic the
// page images ("BTPG"; see cowtree.Node.AppendImage).
const (
	metaMagic = 0x57544D54
	pageMagic = 0x42545047
)

// naming is the B+Tree's on-device footprint.
var naming = cowtree.Naming{
	Name:          "btree",
	File:          "collection.wt",
	MetaPrefix:    "wtmeta",
	MetaMagic:     metaMagic,
	JournalPrefix: "journal-",
}

// Tree is the WiredTiger-style B+Tree engine. Its pages are plain
// cowtree.Nodes — the header, the pivot section and the leaf entries —
// and the node table, the leaf cache, the copy-on-write page write, the
// checkpoint/recovery discipline and the kv.Engine lifecycle live in
// the embedded cowtree core; the engine keeps its page magic, the
// descent, the split propagation and the scan path, and implements
// cowtree.Tree.
type Tree struct {
	cowtree.Core

	cfg Config
	io  IOStats

	// plan holds the targets of the read wave PlanGets was last handed
	// and planned the leaves it found for them; next is the first not
	// yet taken by a Get.
	plan    []kv.Target
	planned []*cowtree.Node
	next    int
}

// IOStats exposes internal activity counters: the core's cache and
// checkpoint counters plus the engine's own.
type IOStats struct {
	cowtree.IOStats
	LeafSplits     int64
	InternalSplits int64
}

// Open creates a B+Tree on fs with a fresh collection file.
func Open(fs *extfs.FS, cfg Config) (*Tree, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	return cowtree.Open(fs, naming, cfg.Tuning, newTree(cfg))
}

// newTree builds the tree shell Open and Recover attach to the device:
// no pages yet, no journal, and the plan's arrays sized for a wave of
// engine.PlanWave Gets.
func newTree(cfg Config) *Tree {
	return &Tree{
		cfg:     cfg,
		plan:    make([]kv.Target, 0, engine.PlanWave),
		planned: make([]*cowtree.Node, 0, engine.PlanWave),
	}
}

// NewRootLeaf implements cowtree.Tree: the empty, resident root leaf of
// a fresh tree.
func (t *Tree) NewRootLeaf() {
	root := t.Core.NewNode(true)
	t.Core.SetRoot(root.ID)
	t.Core.Admit(root)
}

// AppendImage implements cowtree.Engine.
func (t *Tree) AppendImage(dst []byte, id cowtree.NodeID) []byte {
	return t.Core.Node(id).AppendImage(dst, pageMagic, func(id cowtree.NodeID) cowtree.Extent {
		return t.Core.Node(id).Disk
	})
}

// Config returns the validated configuration.
func (t *Tree) Config() Config { return t.cfg }

// IO returns internal activity counters.
func (t *Tree) IO() IOStats {
	io := t.io
	io.IOStats = t.Core.IO()
	return io
}

// loadLeafPrefetching loads leaf like Core.Load and, when the configured
// PrefetchDepth allows, issues reads for up to PrefetchDepth-1 following
// sibling leaves at the same virtual time — batched read submission that
// overlaps on the device's internal lanes. The charged I/O is the same
// as loading each sibling on demand (every prefetched leaf counts one
// cache miss and one read); only the completion times overlap. Scans use
// it because they know they will cross into the siblings next.
func (t *Tree) loadLeafPrefetching(now sim.Duration, leaf *cowtree.Node) (sim.Duration, error) {
	if leaf.Resident || t.cfg.PrefetchDepth <= 1 {
		return t.Core.Load(now, leaf)
	}
	done := now
	p := leaf
	// The window covers the next PrefetchDepth leaves of the chain —
	// resident ones count toward it (they need no read), so the walk
	// never ranges past the leaves the scan is about to visit.
	for seen := 0; p != nil && seen < t.cfg.PrefetchDepth; seen++ {
		if !p.Resident {
			end, err := t.Core.Fetch(now, p)
			if err != nil {
				return now, err
			}
			if end > done {
				done = end
			}
		}
		if p.Next == cowtree.NilNode {
			break
		}
		p = t.Core.Node(p.Next)
	}
	// Admission order put the last prefetched sibling at the LRU head;
	// re-touch the leaf the scan is about to consume.
	t.Core.Touch(leaf)
	return done, nil
}

// descend walks from the root to the leaf covering target, the key
// decoded once for every level's separator search (and the leaf's).
// Internal pages are treated as pinned (always cached): real WiredTiger
// strongly favours keeping them resident, and at the paper's scale
// their footprint is negligible next to the leaves.
func (t *Tree) descend(target kv.Target) *cowtree.Node {
	p := t.Core.Node(t.Core.Root())
	for !p.Leaf {
		p = t.Core.Node(p.Children[p.ChildFor(target)])
	}
	return p
}

// PlanGets implements engine.WaveReader: it finds the leaves of a read
// wave's keys in one lockstep descent (cowtree.Core.DescendAll), and
// the wave's Gets, arriving in the same order, take them instead of
// descending one by one. The plan holds while only Gets run, because
// only a write's splits change the interior pages; a write drops it
// (see write), and so does a Get for any key but the next planned one.
func (t *Tree) PlanGets(keys [][]byte) {
	t.plan = t.plan[:0]
	for _, k := range keys {
		t.plan = append(t.plan, kv.NewTarget(k))
	}
	t.planned = slices.Grow(t.planned[:0], len(keys))[:len(keys)]
	t.Core.DescendAll(t.plan, t.planned)
	t.next = 0
}

// leafFor returns the leaf covering target: the planned one when
// target is the plan's next key (compared by its words, which the plan
// decoded when it was made, so a key buffer rewritten since cannot
// match by mistake), otherwise descend's, after dropping the plan.
func (t *Tree) leafFor(target kv.Target) *cowtree.Node {
	if t.next < len(t.plan) {
		if p := &t.plan[t.next]; p.Fast && target.Fast && p.Hi == target.Hi && p.Lo == target.Lo {
			t.next++
			return t.planned[t.next-1]
		}
	}
	t.dropPlan()
	return t.descend(target)
}

// dropPlan forgets the planned wave.
func (t *Tree) dropPlan() {
	t.plan, t.planned, t.next = t.plan[:0], t.planned[:0], 0
}

// Put implements kv.Engine.
func (t *Tree) Put(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, error) {
	return t.write(now, key, value, valueLen, false)
}

// Delete writes a tombstone (the entry is reclaimed when its leaf is
// rewritten with the tombstone aged out; for simplicity tombstones are
// kept until overwritten).
func (t *Tree) Delete(now sim.Duration, key []byte) (sim.Duration, error) {
	return t.write(now, key, nil, 0, true)
}

// write journals after the leaf insert and splits before the
// epilogue's eviction.
func (t *Tree) write(now sim.Duration, key, value []byte, valueLen int, del bool) (sim.Duration, error) {
	t.dropPlan()
	now, seq, valueLen, err := t.Core.BeginWrite(now, value, valueLen)
	if err != nil {
		return now, err
	}
	leaf := t.descend(kv.NewTarget(key))
	now, err = t.Core.Load(now, leaf)
	if err != nil {
		t.Core.Fail(err)
		return now, err
	}
	// The caller reuses its key/value buffers: the record does not own
	// its bytes, and InsertLeaf copies only what the leaf keeps.
	t.Core.Resize(t.Core.InsertLeaf(leaf, cowtree.MakeRecord(key, seq, valueLen, del), key, value))
	t.Core.MarkDirty(leaf)
	if now, err = t.Core.AppendJournal(now, seq, key, value, valueLen, del); err != nil {
		return now, err
	}
	if t.Core.LeafOverfull(leaf) {
		t.splitLeaf(leaf)
	}
	return t.Core.EndWrite(now, len(key), valueLen)
}

// Get implements kv.Engine.
func (t *Tree) Get(now sim.Duration, key []byte) (sim.Duration, []byte, bool, error) {
	now, err := t.Core.BeginGet(now)
	if err != nil {
		return now, nil, false, err
	}
	target := kv.NewTarget(key)
	leaf := t.leafFor(target)
	if now, err = t.Core.LoadForGet(now, leaf); err != nil {
		return now, nil, false, err
	}
	e := cowtree.FindRecord(leaf.Entries, target)
	if e == nil || e.Del() {
		return now, nil, false, nil
	}
	t.Core.CountRead(len(key) + e.Vlen())
	return now, e.Val(), true, nil
}

// Scan returns up to limit live entries with key >= start, in key order,
// loading (and charging reads for) each leaf it crosses — the range-query
// capability that motivates tree structures over hash indexes in the
// paper's introduction.
func (t *Tree) Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error) {
	now, err := t.Core.BeginRead(now)
	if err != nil {
		return now, nil, err
	}
	var out []kv.Entry
	target := kv.NewTarget(start)
	leaf := t.descend(target)
	idx := cowtree.SearchRecords(leaf.Entries, target)
	var kb [kv.KeySize]byte
	for limit > 0 && leaf != nil {
		now, err = t.loadLeafPrefetching(now, leaf)
		if err != nil {
			t.Core.Fail(err)
			return now, nil, err
		}
		for ; idx < len(leaf.Entries) && limit > 0; idx++ {
			le := &leaf.Entries[idx]
			if le.Del() {
				continue
			}
			e := kv.Entry{
				Key:      append([]byte(nil), le.Key(&kb)...),
				ValueLen: le.Vlen(),
				Seq:      le.Seq(),
			}
			if val := le.Val(); val != nil {
				e.Value = append([]byte(nil), val...)
			}
			t.Core.CountRead(len(e.Key) + e.ValueLen)
			out = append(out, e)
			limit--
		}
		if now, err = t.Core.EvictToFit(now); err != nil {
			return now, nil, err
		}
		if leaf.Next == cowtree.NilNode {
			break
		}
		leaf = t.Core.Node(leaf.Next)
		idx = 0
	}
	return now, out, nil
}

// splitLeaf splits an overfull leaf (see cowtree.Core.SplitLeaf) and
// propagates internal splits.
func (t *Tree) splitLeaf(leaf *cowtree.Node) {
	right, sep := t.Core.SplitLeaf(leaf)
	t.io.LeafSplits++
	t.insertIntoParent(leaf, sep, right)
}

// insertIntoParent links a new right sibling under the parent, splitting
// an internal page that outgrows InternalPageBytes (see
// cowtree.Core.SplitInterior) and growing a new root as needed.
func (t *Tree) insertIntoParent(left *cowtree.Node, sep []byte, right *cowtree.Node) {
	if left.ID == t.Core.Root() {
		t.Core.NewRoot(left, sep, right)
		return
	}
	if parent := t.Core.LinkChild(left, sep, right); parent.Serialized > t.cfg.InternalPageBytes {
		half, promoted := t.Core.SplitInterior(parent)
		t.io.InternalSplits++
		t.insertIntoParent(parent, promoted, half)
	}
}
