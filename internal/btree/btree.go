package btree

import (
	"errors"
	"time"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("btree: tree is closed")

// metaMagic tags the checkpoint metadata files ("WTMT").
const metaMagic = 0x57544D54

// coreConfig maps the engine configuration onto the shared core's knobs.
// The naming fields reproduce the pre-extraction on-device footprint
// exactly.
func coreConfig(cfg Config) cowtree.Config {
	return cowtree.Config{
		Name:                   "btree",
		MetaPrefix:             "wtmeta",
		MetaMagic:              metaMagic,
		JournalPrefix:          "journal-",
		ChunkPages:             cfg.ChunkPages,
		CheckpointInterval:     cfg.CheckpointInterval,
		CheckpointPendingBytes: cfg.CheckpointPendingBytes,
		CacheBytes:             cfg.CacheBytes,
		Content:                cfg.Content,
		DisableJournal:         cfg.DisableJournal,
	}
}

// Tree is the WiredTiger-style B+Tree engine. The node table, the leaf
// cache, the copy-on-write page write and the checkpoint/recovery
// discipline live in the embedded cowtree core; the engine keeps the
// page payload, its codec and the insert/split/scan paths, and
// implements cowtree.RecoveryEngine.
type Tree struct {
	cfg Config
	fs  *extfs.FS

	core cowtree.Core

	// pages is indexed by pageID, parallel to the core's header table
	// (pages[id].Node is the header the core holds for id).
	pages []*page

	// mem bundles the key/value arena and the recycled entry-array
	// pool; slab backs page structs. Page structs and retained keys are
	// immortal in this design (ids are never reused), so bump and pool
	// allocation keep the steady-state op path allocation-free.
	mem  mem
	slab cowtree.Slab[page]

	seq    uint64
	stats  kv.EngineStats
	io     IOStats
	closed bool
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
	f, err := fs.Create("collection.wt")
	if err != nil {
		return nil, err
	}
	t := newTree(fs, f, cfg)
	t.newRootLeaf()
	if err := t.core.StartJournal(); err != nil {
		return nil, err
	}
	return t, nil
}

// newTree builds the tree shell over an open collection file: no pages
// yet, no journal.
func newTree(fs *extfs.FS, f *extfs.File, cfg Config) *Tree {
	t := &Tree{
		cfg:   cfg,
		fs:    fs,
		pages: make([]*page, 1, 64), // index 0 is nilPage
	}
	t.core.Init(t, fs, f, int64(cfg.LeafPageBytes/fs.PageSize())*16, coreConfig(cfg))
	return t
}

// newRootLeaf installs the empty, resident root leaf of a fresh tree.
func (t *Tree) newRootLeaf() {
	root := t.newPage(true)
	t.core.SetRoot(root.ID)
	t.core.Admit(&root.Node)
}

// newPage takes a zeroed page from the slab, registers it with the core
// and the parallel slice, and marks it dirty.
func (t *Tree) newPage(leaf bool) *page {
	p := t.slab.Get()
	p.Leaf = leaf
	p.Serialized = pageHeaderBytes
	t.register(p)
	t.core.MarkDirty(&p.Node)
	return p
}

// register gives p its id and enters it in both tables.
func (t *Tree) register(p *page) {
	t.core.Register(&p.Node)
	t.pages = append(t.pages, p)
}

// AppendImage implements cowtree.Engine.
func (t *Tree) AppendImage(dst []byte, id cowtree.NodeID) []byte {
	return serializePage(dst, t.pages[id], func(id pageID) fileExtent {
		return t.pages[id].Disk
	})
}

// Seq implements cowtree.Engine.
func (t *Tree) Seq() uint64 { return t.seq }

// Config returns the validated configuration.
func (t *Tree) Config() Config { return t.cfg }

// Stats implements kv.Engine.
func (t *Tree) Stats() kv.EngineStats { return t.stats }

// IO returns internal activity counters.
func (t *Tree) IO() IOStats {
	io := t.io
	io.IOStats = t.core.IO()
	return io
}

// DiskUsageBytes implements kv.Engine.
func (t *Tree) DiskUsageBytes() int64 { return t.fs.UsedBytes() }

// Err returns the sticky fatal error, if any.
func (t *Tree) Err() error { return t.core.Err() }

// Check audits the structure the core keeps for the tree (today: the
// leaf cache).
func (t *Tree) Check() error { return t.core.CheckCache() }

// loadLeafPrefetching loads leaf like Core.Load and, when the configured
// PrefetchDepth allows, issues reads for up to PrefetchDepth-1 following
// sibling leaves at the same virtual time — batched read submission that
// overlaps on the device's internal lanes. The charged I/O is the same
// as loading each sibling on demand (every prefetched leaf counts one
// cache miss and one read); only the completion times overlap. Scans use
// it because they know they will cross into the siblings next.
func (t *Tree) loadLeafPrefetching(now sim.Duration, leaf *page) (sim.Duration, error) {
	if leaf.Resident || t.cfg.PrefetchDepth <= 1 {
		return t.core.Load(now, &leaf.Node)
	}
	done := now
	p := leaf
	// The window covers the next PrefetchDepth leaves of the chain —
	// resident ones count toward it (they need no read), so the walk
	// never ranges past the leaves the scan is about to visit.
	for seen := 0; p != nil && seen < t.cfg.PrefetchDepth; seen++ {
		if !p.Resident {
			end, err := t.core.Fetch(now, &p.Node)
			if err != nil {
				return now, err
			}
			if end > done {
				done = end
			}
		}
		if p.Next == nilPage {
			break
		}
		p = t.pages[p.Next]
	}
	// Admission order put the last prefetched sibling at the LRU head;
	// re-touch the leaf the scan is about to consume.
	t.core.Touch(&leaf.Node)
	return done, nil
}

// descend walks from the root to the leaf covering key, decoding the key
// once for every level's separator search. Internal pages are treated
// as pinned (always cached): real WiredTiger strongly favours keeping
// them resident, and at the paper's scale their footprint is negligible
// next to the leaves.
func (t *Tree) descend(key []byte) *page {
	p := t.pages[t.core.Root()]
	target := kv.NewTarget(key)
	for !p.Leaf {
		p = t.pages[p.childFor(target)]
	}
	return p
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

func (t *Tree) write(now sim.Duration, key, value []byte, valueLen int, del bool) (sim.Duration, error) {
	if t.closed {
		return now, ErrClosed
	}
	if err := t.core.Err(); err != nil {
		return now, err
	}
	if value != nil {
		valueLen = len(value)
	}
	t.core.Pump(now)
	now += t.cfg.CPUPutTime + time.Duration(valueLen)*t.cfg.CPUPerByte
	t.seq++

	leaf := t.descend(key)
	var err error
	now, err = t.core.Load(now, &leaf.Node)
	if err != nil {
		t.core.Fail(err)
		return now, err
	}
	t.core.Resize(leaf.insertLeaf(&t.mem, key, value, valueLen, t.seq, del))
	t.core.MarkDirty(&leaf.Node)

	if w := t.core.Journal(); w != nil {
		rec := wal.Record{Seq: t.seq, Key: key, Value: value, Deleted: del, ValueLen: valueLen}
		now, err = w.Append(now, &rec, t.cfg.JournalSync && !t.core.GroupActive())
		if err != nil {
			t.core.Fail(err)
			return now, err
		}
	}
	t.stats.Puts++
	t.stats.UserBytesWritten += int64(len(key) + valueLen)

	if leaf.Serialized > t.cfg.LeafPageBytes {
		t.splitLeaf(leaf)
	}
	now, err = t.core.EvictToFit(now)
	if err != nil {
		return now, err
	}
	t.core.MaybeCheckpoint(now)
	return now, nil
}

// BeginGroupCommit implements engine.GroupCommitter: journal syncs are
// deferred until EndGroupCommit so a multi-client write batch commits
// with a single sync.
func (t *Tree) BeginGroupCommit() { t.core.BeginGroup() }

// EndGroupCommit closes the group and syncs the journal tail once.
func (t *Tree) EndGroupCommit(now sim.Duration) (sim.Duration, error) {
	now, err := t.core.EndGroup(now, t.cfg.JournalSync)
	if err != nil {
		t.core.Fail(err)
	}
	return now, err
}

// Get implements kv.Engine.
func (t *Tree) Get(now sim.Duration, key []byte) (sim.Duration, []byte, bool, error) {
	if t.closed {
		return now, nil, false, ErrClosed
	}
	if err := t.core.Err(); err != nil {
		return now, nil, false, err
	}
	t.core.Pump(now)
	now += t.cfg.CPUGetTime
	t.stats.Gets++

	leaf := t.descend(key)
	var err error
	now, err = t.core.Load(now, &leaf.Node)
	if err != nil {
		t.core.Fail(err)
		return now, nil, false, err
	}
	now, err = t.core.EvictToFit(now)
	if err != nil {
		return now, nil, false, err
	}
	i := leaf.search(key)
	if i >= len(leaf.entries) || !equalBytes(leaf.entries[i].key, key) || leaf.entries[i].del {
		return now, nil, false, nil
	}
	e := &leaf.entries[i]
	t.stats.UserBytesRead += int64(len(key)) + int64(e.vlen)
	return now, e.val, true, nil
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Scan returns up to limit live entries with key >= start, in key order,
// loading (and charging reads for) each leaf it crosses — the range-query
// capability that motivates tree structures over hash indexes in the
// paper's introduction.
func (t *Tree) Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error) {
	if t.closed {
		return now, nil, ErrClosed
	}
	if err := t.core.Err(); err != nil {
		return now, nil, err
	}
	t.core.Pump(now)
	now += t.cfg.CPUGetTime
	var out []kv.Entry
	leaf := t.descend(start)
	idx := leaf.search(start)
	for limit > 0 && leaf != nil {
		var err error
		now, err = t.loadLeafPrefetching(now, leaf)
		if err != nil {
			t.core.Fail(err)
			return now, nil, err
		}
		for ; idx < len(leaf.entries) && limit > 0; idx++ {
			le := &leaf.entries[idx]
			if le.del {
				continue
			}
			e := kv.Entry{
				Key:      append([]byte(nil), le.key...),
				ValueLen: int(le.vlen),
				Seq:      le.seq,
			}
			if le.val != nil {
				e.Value = append([]byte(nil), le.val...)
			}
			t.stats.UserBytesRead += int64(len(e.Key) + e.ValueLen)
			out = append(out, e)
			limit--
		}
		if now, err = t.core.EvictToFit(now); err != nil {
			return now, nil, err
		}
		if leaf.Next == nilPage {
			break
		}
		leaf = t.pages[leaf.Next]
		idx = 0
	}
	return now, out, nil
}

// splitLeaf splits an oversized leaf and propagates internal splits.
func (t *Tree) splitLeaf(leaf *page) {
	right := t.slab.Get()
	t.register(right)
	sep := leaf.splitLeaf(&t.mem, right)
	t.core.MarkDirty(&right.Node)
	t.core.MarkDirty(&leaf.Node)
	t.io.LeafSplits++
	// Journal replay splits leaves recovery left out of the cache; the
	// right half of such a leaf stays out too.
	if leaf.Resident {
		t.core.Admit(&right.Node)
		// Admit charged right.Serialized, but the moved entries were
		// already counted while they lived in leaf (whose serialized size
		// dropped by the same amount); only the new page header is
		// genuinely new.
		t.core.Resize(pageHeaderBytes - right.Serialized)
	}
	t.insertIntoParent(leaf, sep, right)
}

// insertIntoParent links a new right sibling under the parent, splitting
// internals (and growing a new root) as needed.
func (t *Tree) insertIntoParent(left *page, sep []byte, right *page) {
	if left.ID == t.core.Root() {
		newRoot := t.newPage(false)
		newRoot.Children = []pageID{left.ID, right.ID}
		newRoot.seps = [][]byte{t.mem.arena.Clone(sep)}
		newRoot.recomputeSerialized()
		newRoot.refreshSepCache()
		left.Parent = newRoot.ID
		right.Parent = newRoot.ID
		t.core.SetRoot(newRoot.ID)
		return
	}
	parent := t.pages[left.Parent]
	idx := parent.childIndex(left.ID)
	parent.insertChild(&t.mem, idx, sep, right.ID)
	right.Parent = parent.ID
	t.core.MarkDirty(&parent.Node)
	if parent.Serialized > t.cfg.InternalPageBytes {
		t.splitInternalPage(parent)
	}
}

// splitInternalPage splits an internal page and reparents moved children.
func (t *Tree) splitInternalPage(p *page) {
	right := t.slab.Get()
	t.register(right)
	promoted := p.splitInternal(right)
	t.core.MarkDirty(&right.Node)
	t.core.MarkDirty(&p.Node)
	t.io.InternalSplits++
	for _, c := range right.Children {
		t.pages[c].Parent = right.ID
	}
	t.insertIntoParent(p, promoted, right)
}

// FlushAll implements kv.Engine: runs a full checkpoint synchronously.
func (t *Tree) FlushAll(now sim.Duration) (sim.Duration, error) {
	if t.closed {
		return now, ErrClosed
	}
	return t.core.Checkpoint(now)
}

// Quiesce drains background checkpoint work.
func (t *Tree) Quiesce(now sim.Duration) sim.Duration {
	return t.core.Quiesce(now)
}

// JournalSyncCount exposes the active journal segment's device-reaching
// sync count (group-commit accounting; see cowtree.Core).
func (t *Tree) JournalSyncCount() int64 { return t.core.JournalSyncCount() }

// Close checkpoints and shuts the tree down.
func (t *Tree) Close(now sim.Duration) (sim.Duration, error) {
	if t.closed {
		return now, ErrClosed
	}
	end, err := t.FlushAll(now)
	t.closed = true
	return end, err
}

// Depth returns the tree height (1 = root leaf only).
func (t *Tree) Depth() int {
	d := 1
	p := t.pages[t.core.Root()]
	for !p.Leaf {
		d++
		p = t.pages[p.Children[0]]
	}
	return d
}

// PageCount returns the numbers of leaf and internal pages.
func (t *Tree) PageCount() (leaves, internals int) {
	for _, p := range t.pages {
		if p == nil {
			continue // index 0 (nilPage) placeholder
		}
		if p.Leaf {
			leaves++
		} else {
			internals++
		}
	}
	return leaves, internals
}
