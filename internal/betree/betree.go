package betree

import (
	"bytes"
	"errors"
	"time"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("betree: tree is closed")

// metaMagic tags the checkpoint metadata files ("BEMT").
const metaMagic = 0x42454D54

// coreConfig maps the engine configuration onto the shared core's knobs.
// The naming fields reproduce the pre-extraction on-device footprint
// exactly.
func coreConfig(cfg Config) cowtree.Config {
	return cowtree.Config{
		Name:                   "betree",
		MetaPrefix:             "bemeta",
		MetaMagic:              metaMagic,
		JournalPrefix:          "bjournal-",
		ChunkPages:             cfg.ChunkPages,
		CheckpointInterval:     cfg.CheckpointInterval,
		CheckpointPendingBytes: cfg.CheckpointPendingBytes,
		CacheBytes:             cfg.CacheBytes,
		Content:                cfg.Content,
		DisableJournal:         cfg.DisableJournal,
	}
}

// Tree is the Bε-tree engine. The node table, the leaf cache (interior
// nodes, with their buffers, are pinned), the copy-on-write node write
// and the checkpoint/recovery discipline live in the embedded cowtree
// core; the engine keeps the node payload, its codec and the
// buffer/flush/split/scan paths, and implements cowtree.RecoveryEngine.
type Tree struct {
	cfg       Config
	pivotMax  int // cached cfg.pivotBudget()
	bufferMax int // cached cfg.bufferBudget()
	fs        *extfs.FS

	core cowtree.Core

	// nodes is indexed by nodeID, parallel to the core's header table
	// (nodes[id].Node is the header the core holds for id).
	nodes []*node

	// overfull queues interior nodes whose buffers exceeded the node's
	// budget through an interior split (the split divides the child
	// buffers, and one half can keep most of the bytes); the apply path
	// drains it.
	overfull []nodeID

	// mem bundles the key/value arena and the recycled message-array
	// pool; slab backs node structs. Node structs and retained keys are
	// immortal in this design (ids are never reused), so bump and pool
	// allocation keep the steady-state op path allocation-free.
	mem  mem
	slab cowtree.Slab[node]

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
	InteriorSplits int64

	// BufferFlushes counts batch pushes of messages one level down;
	// FlushedMessages is the total messages moved. Their ratio is the
	// batching factor the ε knob trades against fanout.
	BufferFlushes   int64
	FlushedMessages int64
	// BufferHits counts Gets answered from an interior buffer without
	// touching a leaf (no read I/O).
	BufferHits int64
}

// Open creates a Bε-tree on fs with a fresh collection file.
func Open(fs *extfs.FS, cfg Config) (*Tree, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	f, err := fs.Create("collection.be")
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

// newTree builds the tree shell over an open collection file: no nodes
// yet, no journal.
func newTree(fs *extfs.FS, f *extfs.File, cfg Config) *Tree {
	t := &Tree{
		cfg:       cfg,
		pivotMax:  cfg.pivotBudget(),
		bufferMax: cfg.bufferBudget(),
		fs:        fs,
		nodes:     make([]*node, 1, 64), // index 0 is nilNode
	}
	t.core.Init(t, fs, f, int64(cfg.LeafPageBytes/fs.PageSize())*16, coreConfig(cfg))
	return t
}

// newRootLeaf installs the empty, resident root leaf of a fresh tree.
func (t *Tree) newRootLeaf() {
	root := t.newNode(true)
	t.core.SetRoot(root.ID)
	t.core.Admit(&root.Node)
}

// newNode takes a zeroed node from the slab, registers it with the core
// and the parallel slice, and marks it dirty.
func (t *Tree) newNode(leaf bool) *node {
	n := t.slab.Get()
	n.Leaf = leaf
	n.Serialized = pageHeaderBytes
	if !leaf {
		n.pivotBytes = pageHeaderBytes
	}
	t.register(n)
	t.core.MarkDirty(&n.Node)
	return n
}

// register gives n its id and enters it in both tables.
func (t *Tree) register(n *node) {
	t.core.Register(&n.Node)
	t.nodes = append(t.nodes, n)
}

// AppendImage implements cowtree.Engine.
func (t *Tree) AppendImage(dst []byte, id cowtree.NodeID) []byte {
	return serializeNode(dst, t.nodes[id], func(id nodeID) fileExtent {
		return t.nodes[id].Disk
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

// Put implements kv.Engine.
func (t *Tree) Put(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, error) {
	return t.write(now, key, value, valueLen, false)
}

// Delete writes a tombstone message.
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

	if w := t.core.Journal(); w != nil {
		rec := wal.Record{Seq: t.seq, Key: key, Value: value, Deleted: del, ValueLen: valueLen}
		var err error
		now, err = w.Append(now, &rec, t.cfg.JournalSync && !t.core.GroupActive())
		if err != nil {
			t.core.Fail(err)
			return now, err
		}
	}

	// The caller reuses its key/value buffers, so the message does not
	// own its bytes and the value travels beside it: the node inserts
	// copy them only when actually retained (an accounting-mode overwrite
	// keeps the resident key — no allocation).
	msg := makeMessage(key, t.seq, valueLen, del)
	var err error
	now, err = t.apply(now, msg, value)
	if err != nil {
		t.core.Fail(err)
		return now, err
	}
	t.stats.Puts++
	t.stats.UserBytesWritten += int64(len(key) + valueLen)

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

// apply routes one unowned message (val beside it, see mem.own) into the
// tree: into the root's buffer when the root is an interior node with
// buffer capacity (flushing down when it overflows), or straight into
// the root leaf / down the spine when buffering is off (ε = 1).
func (t *Tree) apply(now sim.Duration, msg message, val []byte) (sim.Duration, error) {
	root := t.nodes[t.core.Root()]
	if root.Leaf {
		var err error
		now, err = t.core.Load(now, &root.Node)
		if err != nil {
			return now, err
		}
		t.core.Resize(root.insertLeaf(&t.mem, msg, val))
		t.core.MarkDirty(&root.Node)
		t.splitLeafToFit(root)
		return now, nil
	}
	if t.bufferMax <= 0 {
		// Degenerate B+Tree mode: descend to the leaf directly.
		return t.applyToLeaf(now, msg, val)
	}
	root.bufInsert(&t.mem, msg, val, false)
	t.core.MarkDirty(&root.Node)
	return t.drainOverflow(now)
}

// drainOverflow flushes the root and any split-orphaned interior nodes
// until every buffer fits its budget.
func (t *Tree) drainOverflow(now sim.Duration) (sim.Duration, error) {
	var err error
	for {
		root := t.nodes[t.core.Root()] // flushing can grow a new root
		if !root.Leaf && root.bufBytes > t.bufferMax {
			if now, err = t.flushInterior(now, root); err != nil {
				return now, err
			}
			continue
		}
		if len(t.overfull) == 0 {
			return now, nil
		}
		id := t.overfull[len(t.overfull)-1]
		t.overfull = t.overfull[:len(t.overfull)-1]
		n := t.nodes[id]
		for !n.Leaf && n.bufBytes > t.bufferMax {
			if now, err = t.flushInterior(now, n); err != nil {
				return now, err
			}
		}
	}
}

// applyToLeaf descends to the leaf covering the message key and inserts
// it there (the ε = 1 degenerate path).
func (t *Tree) applyToLeaf(now sim.Duration, msg message, val []byte) (sim.Duration, error) {
	n := t.nodes[t.core.Root()]
	target := kv.NewTarget(msg.key)
	for !n.Leaf {
		n = t.nodes[n.Children[n.childFor(target)]]
	}
	var err error
	now, err = t.core.Load(now, &n.Node)
	if err != nil {
		return now, err
	}
	t.core.Resize(n.insertLeaf(&t.mem, msg, val))
	t.core.MarkDirty(&n.Node)
	t.splitLeafToFit(n)
	return now, nil
}

// flushInterior pushes the busiest child's buffer one level down as a
// batch: into the child's own buffers (interior child, recursing if that
// overflows) or applied to the child leaf. This is the Bε-tree's
// characteristic I/O pattern — each leaf write triggered downstream
// carries a whole batch of updates instead of one.
func (t *Tree) flushInterior(now sim.Duration, n *node) (sim.Duration, error) {
	bestCi, bestBytes := n.busiestChild()
	if bestBytes == 0 {
		return now, nil
	}
	batch := n.bufs[bestCi]
	child := t.nodes[n.Children[bestCi]]
	t.io.BufferFlushes++
	t.io.FlushedMessages += int64(len(batch))

	var err error
	if child.Leaf {
		now, err = t.core.Load(now, &child.Node)
		if err != nil {
			return now, err
		}
		t.core.Resize(child.insertBatch(&t.mem, batch))
	} else {
		for i := range batch {
			child.bufInsert(&t.mem, batch[i], nil, true)
		}
	}
	t.core.MarkDirty(&child.Node)

	// The batch's messages now live in the child: retire its array.
	t.mem.msgs.Put(batch)
	n.bufs[bestCi], n.bufSizes[bestCi] = nil, 0
	n.bufBytes -= bestBytes
	n.Serialized -= bestBytes
	t.core.MarkDirty(&n.Node)

	if child.Leaf {
		t.splitLeafToFit(child)
	} else {
		// One batch may not be enough when the child was already near
		// its budget; keep flushing (each pass removes the then-busiest
		// batch) until it fits.
		for child.bufBytes > t.bufferMax {
			now, err = t.flushInterior(now, child)
			if err != nil {
				return now, err
			}
		}
	}
	return now, nil
}

// splitLeafToFit splits an oversized leaf (repeatedly — a batch apply
// can leave it several times over budget) and propagates interior
// splits.
func (t *Tree) splitLeafToFit(leaf *node) {
	for leaf.Serialized > t.cfg.LeafPageBytes && len(leaf.entries) > 1 {
		right := t.slab.Get()
		t.register(right)
		sep := leaf.splitLeaf(&t.mem, right)
		t.core.MarkDirty(&right.Node)
		t.core.MarkDirty(&leaf.Node)
		t.io.LeafSplits++
		if leaf.Resident {
			t.core.Admit(&right.Node)
			// Admit charged right.Serialized, but the moved entries were
			// already counted while they lived in leaf; only the new page
			// header is genuinely new.
			t.core.Resize(pageHeaderBytes - right.Serialized)
		}
		t.insertIntoParent(leaf, sep, right)
		t.splitLeafToFit(right)
	}
}

// insertIntoParent links a new right sibling under the parent, splitting
// interiors (and growing a new root) as needed.
func (t *Tree) insertIntoParent(left *node, sep []byte, right *node) {
	if left.ID == t.core.Root() {
		newRoot := t.newNode(false)
		newRoot.Children = []nodeID{left.ID, right.ID}
		newRoot.seps = [][]byte{t.mem.arena.Clone(sep)}
		newRoot.bufs, newRoot.bufSizes = make([][]message, 2), make([]int, 2)
		newRoot.recomputeSerialized()
		newRoot.refreshSepCache()
		left.Parent = newRoot.ID
		right.Parent = newRoot.ID
		t.core.SetRoot(newRoot.ID)
		return
	}
	parent := t.nodes[left.Parent]
	idx := parent.childIndex(left.ID)
	parent.insertChild(&t.mem, idx, sep, right.ID)
	right.Parent = parent.ID
	t.core.MarkDirty(&parent.Node)
	if parent.pivotBytes > t.pivotMax {
		t.splitInteriorNode(parent)
	}
}

// splitInteriorNode splits an interior node (pivots and child buffers)
// and reparents moved children. A half left over its buffer budget is
// queued for the apply path to flush.
func (t *Tree) splitInteriorNode(n *node) {
	right := t.slab.Get()
	t.register(right)
	promoted := n.splitInterior(right)
	t.core.MarkDirty(&right.Node)
	t.core.MarkDirty(&n.Node)
	t.io.InteriorSplits++
	for _, c := range right.Children {
		t.nodes[c].Parent = right.ID
	}
	if n.bufBytes > t.bufferMax {
		t.overfull = append(t.overfull, n.ID)
	}
	if right.bufBytes > t.bufferMax {
		t.overfull = append(t.overfull, right.ID)
	}
	t.insertIntoParent(n, promoted, right)
}

// Get implements kv.Engine. The descent consults each interior node's
// buffer first: a buffered message is always newer than anything deeper
// (flushes only push messages down), so the topmost hit answers the
// lookup without leaf I/O.
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

	n := t.nodes[t.core.Root()]
	target := kv.NewTarget(key)
	for !n.Leaf {
		ci := n.childFor(target)
		if m := n.bufGet(ci, target); m != nil {
			t.io.BufferHits++
			if m.del {
				return now, nil, false, nil
			}
			t.stats.UserBytesRead += int64(len(key)) + int64(m.vlen)
			return now, m.val(), true, nil
		}
		n = t.nodes[n.Children[ci]]
	}
	var err error
	now, err = t.core.Load(now, &n.Node)
	if err != nil {
		t.core.Fail(err)
		return now, nil, false, err
	}
	now, err = t.core.EvictToFit(now)
	if err != nil {
		return now, nil, false, err
	}
	i := n.search(target)
	if i >= len(n.entries) || !bytes.Equal(n.entries[i].key, key) || n.entries[i].del {
		return now, nil, false, nil
	}
	e := &n.entries[i]
	t.stats.UserBytesRead += int64(len(key)) + int64(e.vlen)
	return now, e.val(), true, nil
}

// Scan returns up to limit live entries with key >= start, in key order,
// merging buffered messages (gathered from the interior nodes, which are
// pinned in memory and cost no I/O) with the leaf chain walk (which
// charges a read per leaf crossed).
func (t *Tree) Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error) {
	if t.closed {
		return now, nil, ErrClosed
	}
	if err := t.core.Err(); err != nil {
		return now, nil, err
	}
	t.core.Pump(now)
	now += t.cfg.CPUGetTime

	target := kv.NewTarget(start)
	stream := t.newMsgStream(target)
	var out []kv.Entry

	emit := func(m *message) {
		if m.del {
			return
		}
		e := kv.Entry{
			Key:      append([]byte(nil), m.key...),
			ValueLen: int(m.vlen),
			Seq:      m.seq,
		}
		if val := m.val(); val != nil {
			e.Value = append([]byte(nil), val...)
		}
		t.stats.UserBytesRead += int64(len(e.Key) + e.ValueLen)
		out = append(out, e)
		limit--
	}

	// Descend to the first leaf covering start.
	leaf := t.nodes[t.core.Root()]
	for !leaf.Leaf {
		leaf = t.nodes[leaf.Children[leaf.childFor(target)]]
	}
	idx := leaf.search(target)
	for limit > 0 && leaf != nil {
		var err error
		now, err = t.core.Load(now, &leaf.Node)
		if err != nil {
			t.core.Fail(err)
			return now, nil, err
		}
		for ; idx < len(leaf.entries) && limit > 0; idx++ {
			le := &leaf.entries[idx]
			// Messages strictly before this key come first; a message for
			// the same key shadows the leaf entry (it is newer).
			shadowed := false
			for limit > 0 {
				m := stream.peek()
				if m == nil {
					break
				}
				c := kv.CompareKeys(m.key, le.key)
				if c > 0 {
					break
				}
				if c == 0 {
					shadowed = true
				}
				emit(m)
				stream.consume(m.key)
			}
			if limit <= 0 {
				break
			}
			if !shadowed {
				emit(le)
			}
		}
		if now, err = t.core.EvictToFit(now); err != nil {
			return now, nil, err
		}
		if limit <= 0 || leaf.Next == nilNode {
			break
		}
		leaf = t.nodes[leaf.Next]
		idx = 0
	}
	// Buffered keys beyond the last leaf entry.
	for limit > 0 {
		m := stream.peek()
		if m == nil {
			break
		}
		emit(m)
		stream.consume(m.key)
	}
	return now, out, nil
}

// msgStream lazily merges the interior buffers' sorted tails for a
// scan: one cursor per interior node with messages at key >= start (not
// one per child buffer — the min-scan below is linear in cursors).
// Nothing is copied or pre-sorted — a scan only pays for the messages
// it actually consumes (plus an O(cursors) min-scan per pull), so a
// limit-1 scan over a tree with megabytes of buffered messages stays
// cheap. Buffers are immutable for the duration of a Scan (only writes
// and flushes mutate them), so the cursors alias them safely.
type msgStream struct {
	cursors []msgCursor
}

// msgCursor walks one node's messages in key order: position i of child
// buffer ci, then the following buffers.
type msgCursor struct {
	bufs  [][]message
	ci, i int
}

// head returns the cursor's current message, stepping over exhausted and
// empty child buffers, or nil at the end of the node.
func (c *msgCursor) head() *message {
	for ; c.ci < len(c.bufs); c.ci, c.i = c.ci+1, 0 {
		if buf := c.bufs[c.ci]; c.i < len(buf) {
			return &buf[c.i]
		}
	}
	return nil
}

// newMsgStream walks the interior nodes whose key range can intersect
// [start, inf) — childFor(start) and everything to its right at each
// level — and opens a cursor into each node with messages there.
func (t *Tree) newMsgStream(start kv.Target) *msgStream {
	s := &msgStream{}
	var walk func(id nodeID)
	walk = func(id nodeID) {
		n := t.nodes[id]
		if n.Leaf {
			return
		}
		first := n.childFor(start)
		c := msgCursor{bufs: n.bufs, ci: first, i: searchMsgs(n.bufs[first], start)}
		if c.head() != nil {
			s.cursors = append(s.cursors, c)
		}
		for ci := first; ci < len(n.Children); ci++ {
			walk(n.Children[ci])
		}
	}
	walk(t.core.Root())
	return s
}

// peek returns the next message — smallest key; for duplicate keys
// across levels, the newest (highest seq) version — without consuming
// it, or nil when the stream is exhausted.
func (s *msgStream) peek() *message {
	var best *message
	for ci := range s.cursors {
		m := s.cursors[ci].head()
		if m == nil {
			continue
		}
		if best == nil {
			best = m
			continue
		}
		switch cmp := kv.CompareKeys(m.key, best.key); {
		case cmp < 0:
			best = m
		case cmp == 0 && m.seq > best.seq:
			best = m
		}
	}
	return best
}

// consume advances every cursor past key, discarding the shadowed older
// duplicates along with the consumed message.
func (s *msgStream) consume(key []byte) {
	for ci := range s.cursors {
		c := &s.cursors[ci]
		for m := c.head(); m != nil && kv.CompareKeys(m.key, key) <= 0; m = c.head() {
			c.i++
		}
	}
}

// FlushAll implements kv.Engine: runs a full checkpoint synchronously.
// Buffered messages are NOT pushed to the leaves — they are durable
// inside the checkpointed interior node images, exactly as a real
// Bε-tree persists its buffers.
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
	n := t.nodes[t.core.Root()]
	for !n.Leaf {
		d++
		n = t.nodes[n.Children[0]]
	}
	return d
}

// NodeCount returns the numbers of leaf and interior nodes.
func (t *Tree) NodeCount() (leaves, interiors int) {
	for _, n := range t.nodes {
		if n == nil {
			continue
		}
		if n.Leaf {
			leaves++
		} else {
			interiors++
		}
	}
	return leaves, interiors
}

// BufferedBytes returns the total bytes currently buffered in interior
// nodes (tests and examples use it to observe the ε trade-off).
func (t *Tree) BufferedBytes() int64 {
	var b int64
	for _, n := range t.nodes {
		if n != nil && !n.Leaf {
			b += int64(n.bufBytes)
		}
	}
	return b
}
