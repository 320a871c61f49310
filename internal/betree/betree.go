package betree

import (
	"ptsbench/internal/cowtree"
	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// metaMagic tags the checkpoint metadata files ("BEMT").
const metaMagic = 0x42454D54

// naming is the Bε-tree's on-device footprint.
var naming = cowtree.Naming{
	Name:          "betree",
	File:          "collection.be",
	MetaPrefix:    "bemeta",
	MetaMagic:     metaMagic,
	JournalPrefix: "bjournal-",
}

// Tree is the Bε-tree engine. The node table, the leaf cache (interior
// nodes, with their buffers, are pinned), the leaf payload, the
// copy-on-write node write, the checkpoint/recovery discipline and the
// kv.Engine lifecycle live in the embedded cowtree core; the engine
// keeps the interior buffers, their codec and the
// buffer/flush/split/scan paths, and implements cowtree.Tree.
type Tree struct {
	cowtree.Core

	cfg       Config
	pivotMax  int // cached cfg.pivotBudget()
	bufferMax int // cached cfg.bufferBudget()

	// nodes is indexed by nodeID, parallel to the core's header table
	// (nodes[id].Node is the header the core holds for id).
	nodes []*node

	// overfull queues interior nodes whose buffers exceeded the node's
	// budget through an interior split (the split divides the child
	// buffers, and one half can keep most of the bytes); the apply path
	// drains it.
	overfull []nodeID

	// mem bundles the record arena (key/value bytes and the headers
	// that point at them) and the recycled record-array pool; slab
	// backs node structs. Node structs and retained bytes are immortal
	// in this design (ids are never reused), so bump and pool
	// allocation keep the steady-state op path allocation-free.
	mem  mem
	slab cowtree.Slab[node]

	io IOStats
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
	return cowtree.Open(fs, naming, cfg.Tuning, newTree(cfg))
}

// newTree builds the tree shell Open and Recover attach to the device:
// no nodes yet, no journal.
func newTree(cfg Config) *Tree {
	return &Tree{
		cfg:       cfg,
		pivotMax:  cfg.pivotBudget(),
		bufferMax: cfg.bufferBudget(),
		nodes:     make([]*node, 1, 64), // index 0 is nilNode
	}
}

// NewRootLeaf implements cowtree.Tree: the empty, resident root leaf of
// a fresh tree.
func (t *Tree) NewRootLeaf() {
	root := t.newNode(true)
	t.Core.SetRoot(root.ID)
	t.Core.Admit(&root.Node)
}

// newNode takes a zeroed node from the slab, registers it with the core
// and the parallel slice, and marks it dirty.
func (t *Tree) newNode(leaf bool) *node {
	n := t.slab.Get()
	n.Leaf = leaf
	n.Serialized = cowtree.PageHeaderBytes
	t.register(n)
	t.Core.MarkDirty(&n.Node)
	return n
}

// register gives n its id and enters it in both tables.
func (t *Tree) register(n *node) {
	t.Core.Register(&n.Node)
	t.nodes = append(t.nodes, n)
}

// AppendImage implements cowtree.Engine.
func (t *Tree) AppendImage(dst []byte, id cowtree.NodeID) []byte {
	return serializeNode(dst, t.nodes[id], func(id nodeID) fileExtent {
		return t.nodes[id].Disk
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

// Put implements kv.Engine.
func (t *Tree) Put(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, error) {
	return t.write(now, key, value, valueLen, false)
}

// Delete writes a tombstone message.
func (t *Tree) Delete(now sim.Duration, key []byte) (sim.Duration, error) {
	return t.write(now, key, nil, 0, true)
}

// write journals before the message enters the tree.
func (t *Tree) write(now sim.Duration, key, value []byte, valueLen int, del bool) (sim.Duration, error) {
	now, seq, valueLen, err := t.Core.BeginWrite(now, value, valueLen)
	if err != nil {
		return now, err
	}
	if now, err = t.Core.AppendJournal(now, seq, key, value, valueLen, del); err != nil {
		return now, err
	}
	// The caller reuses its key/value buffers, so the message does not
	// own its bytes and key and value travel beside it: the node inserts
	// copy them only when actually retained (an accounting-mode put of a
	// kv.KeySize key retains nothing).
	if now, err = t.apply(now, cowtree.MakeRecord(key, seq, valueLen, del), key, value); err != nil {
		t.Core.Fail(err)
		return now, err
	}
	return t.Core.EndWrite(now, len(key), valueLen)
}

// apply routes one unowned message (key and val beside it, see
// cowtree.RecordArena.Own) into the tree: into the root's buffer when
// the root is an interior node with buffer capacity (flushing down when
// it overflows), or straight into the root leaf / down the spine when
// buffering is off (ε = 1).
func (t *Tree) apply(now sim.Duration, msg cowtree.Record, key, val []byte) (sim.Duration, error) {
	root := t.nodes[t.Core.Root()]
	if root.Leaf {
		var err error
		now, err = t.Core.Load(now, &root.Node)
		if err != nil {
			return now, err
		}
		t.Core.Resize(root.InsertLeaf(&t.mem.msgs, &t.mem.arena, msg, key, val))
		t.Core.MarkDirty(&root.Node)
		t.splitLeafToFit(root)
		return now, nil
	}
	if t.bufferMax <= 0 {
		// Degenerate B+Tree mode: descend to the leaf directly.
		return t.applyToLeaf(now, msg, key, val)
	}
	root.bufInsert(&t.mem, msg, key, val, false)
	t.Core.MarkDirty(&root.Node)
	return t.drainOverflow(now)
}

// drainOverflow flushes the root and any split-orphaned interior nodes
// until every buffer fits its budget.
func (t *Tree) drainOverflow(now sim.Duration) (sim.Duration, error) {
	var err error
	for {
		root := t.nodes[t.Core.Root()] // flushing can grow a new root
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
func (t *Tree) applyToLeaf(now sim.Duration, msg cowtree.Record, key, val []byte) (sim.Duration, error) {
	n := t.nodes[t.Core.Root()]
	target := kv.NewTarget(key)
	for !n.Leaf {
		n = t.nodes[n.Children[n.ChildFor(target)]]
	}
	var err error
	now, err = t.Core.Load(now, &n.Node)
	if err != nil {
		return now, err
	}
	t.Core.Resize(n.InsertLeaf(&t.mem.msgs, &t.mem.arena, msg, key, val))
	t.Core.MarkDirty(&n.Node)
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
		now, err = t.Core.Load(now, &child.Node)
		if err != nil {
			return now, err
		}
		t.Core.Resize(child.insertBatch(&t.mem, batch))
	} else {
		for i := range batch {
			child.bufInsert(&t.mem, batch[i], nil, nil, true)
		}
	}
	t.Core.MarkDirty(&child.Node)

	// The batch's messages now live in the child: retire its array.
	t.mem.msgs.Put(batch)
	n.bufs[bestCi], n.bufSizes[bestCi] = nil, 0
	n.bufBytes -= bestBytes
	n.Serialized -= bestBytes
	t.Core.MarkDirty(&n.Node)

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

// splitLeafToFit splits an overfull leaf (see cowtree.Core.SplitLeaf)
// repeatedly — a batch apply can leave it several times over budget —
// and propagates interior splits.
func (t *Tree) splitLeafToFit(leaf *node) {
	for t.Core.LeafOverfull(&leaf.Node) {
		right := t.slab.Get()
		t.register(right)
		sep := t.Core.SplitLeaf(&t.mem.msgs, &t.mem.arena, &leaf.Node, &right.Node)
		t.io.LeafSplits++
		t.insertIntoParent(leaf, sep, right)
		t.splitLeafToFit(right)
	}
}

// insertIntoParent links a new right sibling under the parent, splitting
// interiors (and growing a new root) as needed.
func (t *Tree) insertIntoParent(left *node, sep []byte, right *node) {
	if left.ID == t.Core.Root() {
		newRoot := t.newNode(false)
		newRoot.InitRoot(left.ID, sep, right.ID)
		newRoot.bufs, newRoot.bufSizes = make([][]cowtree.Record, 2), make([]int, 2)
		newRoot.Serialized = newRoot.PivotBytes()
		left.Parent = newRoot.ID
		right.Parent = newRoot.ID
		t.Core.SetRoot(newRoot.ID)
		return
	}
	parent := t.nodes[left.Parent]
	parent.insertChild(&t.mem, parent.ChildIndex(left.ID), sep, right.ID)
	right.Parent = parent.ID
	t.Core.MarkDirty(&parent.Node)
	if parent.PivotBytes() > t.pivotMax {
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
	t.Core.MarkDirty(&right.Node)
	t.Core.MarkDirty(&n.Node)
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
	now, err := t.Core.BeginGet(now)
	if err != nil {
		return now, nil, false, err
	}

	n := t.nodes[t.Core.Root()]
	target := kv.NewTarget(key)
	for !n.Leaf {
		ci := n.ChildFor(target)
		if m := n.bufGet(ci, target); m != nil {
			t.io.BufferHits++
			if m.Del() {
				return now, nil, false, nil
			}
			t.Core.CountRead(len(key) + m.Vlen())
			return now, m.Val(), true, nil
		}
		n = t.nodes[n.Children[ci]]
	}
	if now, err = t.Core.LoadForGet(now, &n.Node); err != nil {
		return now, nil, false, err
	}
	e := cowtree.FindRecord(n.Entries, target)
	if e == nil || e.Del() {
		return now, nil, false, nil
	}
	t.Core.CountRead(len(key) + e.Vlen())
	return now, e.Val(), true, nil
}

// Scan returns up to limit live entries with key >= start, in key order,
// merging buffered messages (gathered from the interior nodes, which are
// pinned in memory and cost no I/O) with the leaf chain walk (which
// charges a read per leaf crossed).
func (t *Tree) Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []kv.Entry, error) {
	now, err := t.Core.BeginRead(now)
	if err != nil {
		return now, nil, err
	}

	target := kv.NewTarget(start)
	stream := t.newMsgStream(target)
	var out []kv.Entry

	var kb [kv.KeySize]byte
	emit := func(m *cowtree.Record) {
		if m.Del() {
			return
		}
		e := kv.Entry{
			Key:      append([]byte(nil), m.Key(&kb)...),
			ValueLen: m.Vlen(),
			Seq:      m.Seq(),
		}
		if val := m.Val(); val != nil {
			e.Value = append([]byte(nil), val...)
		}
		t.Core.CountRead(len(e.Key) + e.ValueLen)
		out = append(out, e)
		limit--
	}

	// Descend to the first leaf covering start.
	leaf := t.nodes[t.Core.Root()]
	for !leaf.Leaf {
		leaf = t.nodes[leaf.Children[leaf.ChildFor(target)]]
	}
	idx := cowtree.SearchRecords(leaf.Entries, target)
	for limit > 0 && leaf != nil {
		now, err = t.Core.Load(now, &leaf.Node)
		if err != nil {
			t.Core.Fail(err)
			return now, nil, err
		}
		for ; idx < len(leaf.Entries) && limit > 0; idx++ {
			le := &leaf.Entries[idx]
			// Messages strictly before this key come first; a message for
			// the same key shadows the leaf entry (it is newer).
			shadowed := false
			for limit > 0 {
				m := stream.peek()
				if m == nil {
					break
				}
				c := cowtree.CompareRecords(m, le)
				if c > 0 {
					break
				}
				if c == 0 {
					shadowed = true
				}
				emit(m)
				stream.consume(m)
			}
			if limit <= 0 {
				break
			}
			if !shadowed {
				emit(le)
			}
		}
		if now, err = t.Core.EvictToFit(now); err != nil {
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
		stream.consume(m)
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
	bufs  [][]cowtree.Record
	ci, i int
}

// head returns the cursor's current message, stepping over exhausted and
// empty child buffers, or nil at the end of the node.
func (c *msgCursor) head() *cowtree.Record {
	for ; c.ci < len(c.bufs); c.ci, c.i = c.ci+1, 0 {
		if buf := c.bufs[c.ci]; c.i < len(buf) {
			return &buf[c.i]
		}
	}
	return nil
}

// newMsgStream walks the interior nodes whose key range can intersect
// [start, inf) — ChildFor(start) and everything to its right at each
// level — and opens a cursor into each node with messages there.
func (t *Tree) newMsgStream(start kv.Target) *msgStream {
	s := &msgStream{}
	var walk func(id nodeID)
	walk = func(id nodeID) {
		n := t.nodes[id]
		if n.Leaf {
			return
		}
		first := n.ChildFor(start)
		c := msgCursor{bufs: n.bufs, ci: first, i: cowtree.SearchRecords(n.bufs[first], start)}
		if c.head() != nil {
			s.cursors = append(s.cursors, c)
		}
		for ci := first; ci < len(n.Children); ci++ {
			walk(n.Children[ci])
		}
	}
	walk(t.Core.Root())
	return s
}

// peek returns the next message — smallest key; for duplicate keys
// across levels, the newest (highest seq) version — without consuming
// it, or nil when the stream is exhausted.
func (s *msgStream) peek() *cowtree.Record {
	var best *cowtree.Record
	for ci := range s.cursors {
		m := s.cursors[ci].head()
		if m == nil {
			continue
		}
		if best == nil {
			best = m
			continue
		}
		switch cmp := cowtree.CompareRecords(m, best); {
		case cmp < 0:
			best = m
		case cmp == 0 && m.Seq() > best.Seq():
			best = m
		}
	}
	return best
}

// consume advances every cursor past m's key, discarding the shadowed
// older duplicates along with the consumed message m.
func (s *msgStream) consume(m *cowtree.Record) {
	for ci := range s.cursors {
		c := &s.cursors[ci]
		for h := c.head(); h != nil && cowtree.CompareRecords(h, m) <= 0; h = c.head() {
			c.i++
		}
	}
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
