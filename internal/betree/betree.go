package betree

import (
	"ptsbench/internal/cowtree"
	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// metaMagic tags the checkpoint metadata files ("BEMT"), nodeMagic the
// node images ("BEPG"; see cowtree.Node.AppendImage). Interior images
// carry their message buffers, which is what makes buffered but
// unflushed updates durable.
const (
	metaMagic = 0x42454D54
	nodeMagic = 0x42455047
)

// naming is the Bε-tree's on-device footprint.
var naming = cowtree.Naming{
	Name:          "betree",
	File:          "collection.be",
	MetaPrefix:    "bemeta",
	MetaMagic:     metaMagic,
	JournalPrefix: "bjournal-",
	Buffered:      true,
}

// Tree is the Bε-tree engine. Its nodes are plain cowtree.Nodes, and the
// node table, the leaf cache (interior nodes, with their buffers, are
// pinned), the leaf payload, the buffers, the copy-on-write node write,
// the checkpoint/recovery discipline and the kv.Engine lifecycle live in
// the embedded cowtree core. The engine keeps the policy — the ε
// budgets, when and what to flush, the batch apply to a leaf and the
// scan merge — and implements cowtree.Tree.
type Tree struct {
	cowtree.Core

	cfg       Config
	pivotMax  int // cached cfg.pivotBudget()
	bufferMax int // cached cfg.bufferBudget()

	// overfull queues interior nodes whose buffers exceeded the node's
	// budget through an interior split (the split divides the child
	// buffers, and one half can keep most of the bytes); the apply path
	// drains it.
	overfull []cowtree.NodeID

	// scratch holds a flush batch's fresh inserts between insertBatch's
	// classify and merge passes.
	scratch []cowtree.Record

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
	return &Tree{cfg: cfg, pivotMax: cfg.pivotBudget(), bufferMax: cfg.bufferBudget()}
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
	return t.Core.Node(id).AppendImage(dst, nodeMagic, func(id cowtree.NodeID) cowtree.Extent {
		return t.Core.Node(id).Disk
	})
}

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
	now, seq, valueLen, err := t.Core.BeginWrite(now, key, value, valueLen)
	if err != nil {
		return now, err
	}
	if now, err = t.Core.AppendJournal(now, seq, key, value, valueLen, del); err != nil {
		return now, err
	}
	// The caller reuses its key/value buffers, so the message does not
	// own its bytes and key and value travel beside it: the node inserts
	// copy them only when actually retained (an accounting-mode put
	// retains nothing).
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
	root := t.Core.Node(t.Core.Root())
	if root.Leaf || t.bufferMax <= 0 {
		// A root leaf, or degenerate B+Tree mode: straight to the leaf.
		return t.applyToLeaf(now, msg, key, val)
	}
	t.Core.InsertMessage(root, msg, key, val, false)
	t.Core.MarkDirty(root)
	return t.drainOverflow(now)
}

// drainOverflow flushes the root and any split-orphaned interior nodes
// until every buffer fits its budget.
func (t *Tree) drainOverflow(now sim.Duration) (sim.Duration, error) {
	var err error
	for {
		root := t.Core.Node(t.Core.Root()) // flushing can grow a new root
		if !root.Leaf && root.Buf.Bytes > t.bufferMax {
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
		n := t.Core.Node(id)
		for !n.Leaf && n.Buf.Bytes > t.bufferMax {
			if now, err = t.flushInterior(now, n); err != nil {
				return now, err
			}
		}
	}
}

// applyToLeaf descends to the leaf covering the message key and inserts
// it there (a root leaf, or the ε = 1 degenerate path).
func (t *Tree) applyToLeaf(now sim.Duration, msg cowtree.Record, key, val []byte) (sim.Duration, error) {
	n := t.Core.Node(t.Core.Root())
	target := kv.NewTarget(key)
	for !n.Leaf {
		n = t.Core.Node(n.Children[n.ChildFor(target)])
	}
	var err error
	now, err = t.Core.Load(now, n)
	if err != nil {
		return now, err
	}
	t.Core.Resize(t.Core.InsertLeaf(n, msg, key, val))
	t.Core.MarkDirty(n)
	t.splitLeafToFit(n)
	return now, nil
}

// flushInterior pushes the busiest child's buffer one level down as a
// batch: into the child's own buffers (interior child, recursing if that
// overflows) or applied to the child leaf. This is the Bε-tree's
// characteristic I/O pattern — each leaf write triggered downstream
// carries a whole batch of updates instead of one.
func (t *Tree) flushInterior(now sim.Duration, n *cowtree.Node) (sim.Duration, error) {
	bestCi, bestBytes := n.Buf.Busiest()
	if bestBytes == 0 {
		return now, nil
	}
	batch := n.Buf.Msgs[bestCi]
	child := t.Core.Node(n.Children[bestCi])
	t.io.BufferFlushes++
	t.io.FlushedMessages += int64(len(batch))

	var err error
	if child.Leaf {
		now, err = t.Core.Load(now, child)
		if err != nil {
			return now, err
		}
		t.Core.Resize(t.insertBatch(child, batch))
	} else {
		for i := range batch {
			t.Core.InsertMessage(child, batch[i], nil, nil, true)
		}
	}
	t.Core.MarkDirty(child)

	// The batch's messages now live in the child: retire its array.
	t.Core.DropBuffer(n, bestCi)
	t.Core.MarkDirty(n)

	if child.Leaf {
		t.splitLeafToFit(child)
	} else {
		// One batch may not be enough when the child was already near
		// its budget; keep flushing (each pass removes the then-busiest
		// batch) until it fits.
		for child.Buf.Bytes > t.bufferMax {
			now, err = t.flushInterior(now, child)
			if err != nil {
				return now, err
			}
		}
	}
	return now, nil
}

// insertBatch applies a sorted run of owned messages (distinct keys —
// the buffer upsert-collapses duplicates) to leaf n in two passes: one
// classify pass that applies overwrites in place and collects fresh
// inserts, then one merge pass that splices all inserts in a single
// sweep. It replaces the per-message InsertLeaf loop of a buffer flush,
// whose repeated binary search + entry shift made flush cascades the
// Bε-tree cell's hottest CPU path. The returned serialized delta equals
// the sum InsertLeaf would have returned message by message.
func (t *Tree) insertBatch(n *cowtree.Node, batch []cowtree.Record) int {
	delta := 0
	toIns := t.scratch[:0]
	var kb [kv.KeySize]byte
	ei := cowtree.SearchRecords(n.Entries, batch[0].Target(&kb))
	for bi := range batch {
		m := &batch[bi]
		c := 1
		for ; ei < len(n.Entries); ei++ {
			if c = cowtree.CompareRecords(&n.Entries[ei], m); c >= 0 {
				break
			}
		}
		if c == 0 {
			e := &n.Entries[ei]
			if m.Seq() < e.Seq() {
				continue // stale (recovery replay only)
			}
			delta += m.Size() - e.Size()
			*e = *m
			continue
		}
		toIns = append(toIns, *m)
		delta += m.Size()
	}
	t.scratch = toIns[:0]
	n.Serialized += delta
	if len(toIns) == 0 {
		return delta
	}
	oldLen := len(n.Entries)
	if cap(n.Entries) >= oldLen+len(toIns) {
		// Backward in-place merge: walk both runs from the end so no
		// surviving entry is overwritten before it moves.
		n.Entries = n.Entries[:oldLen+len(toIns)]
		si, bi := oldLen-1, len(toIns)-1
		for dst := len(n.Entries) - 1; bi >= 0; dst-- {
			if si >= 0 && cowtree.CompareRecords(&n.Entries[si], &toIns[bi]) > 0 {
				n.Entries[dst] = n.Entries[si]
				si--
			} else {
				n.Entries[dst] = toIns[bi]
				bi--
			}
		}
		return delta
	}
	pool := t.Core.Records()
	grown := pool.Get(oldLen + len(toIns))
	si, bi := 0, 0
	for dst := 0; dst < len(grown); dst++ {
		switch {
		case si >= oldLen:
			grown[dst] = toIns[bi]
			bi++
		case bi >= len(toIns) || cowtree.CompareRecords(&n.Entries[si], &toIns[bi]) < 0:
			grown[dst] = n.Entries[si]
			si++
		default:
			grown[dst] = toIns[bi]
			bi++
		}
	}
	pool.Put(n.Entries)
	n.Entries = grown
	return delta
}

// splitLeafToFit splits an overfull leaf (see cowtree.Core.SplitLeaf)
// repeatedly — a batch apply can leave it several times over budget —
// and propagates interior splits.
func (t *Tree) splitLeafToFit(leaf *cowtree.Node) {
	for t.Core.LeafOverfull(leaf) {
		right, sep := t.Core.SplitLeaf(leaf)
		t.io.LeafSplits++
		t.insertIntoParent(leaf, sep, right)
		t.splitLeafToFit(right)
	}
}

// insertIntoParent links a new right sibling under the parent, splitting
// an interior whose pivots outgrow their budget — pivots and child
// buffers, see cowtree.Core.SplitInterior — and growing a new root, with
// its buffers, as needed. A split half left over its buffer budget is
// queued for the apply path to flush.
func (t *Tree) insertIntoParent(left *cowtree.Node, sep []byte, right *cowtree.Node) {
	if left.ID == t.Core.Root() {
		t.Core.NewBuffers(t.Core.NewRoot(left, sep, right))
		return
	}
	parent := t.Core.LinkChild(left, sep, right)
	if parent.PivotBytes() <= t.pivotMax {
		return
	}
	half, promoted := t.Core.SplitInterior(parent)
	t.io.InteriorSplits++
	if parent.Buf.Bytes > t.bufferMax {
		t.overfull = append(t.overfull, parent.ID)
	}
	if half.Buf.Bytes > t.bufferMax {
		t.overfull = append(t.overfull, half.ID)
	}
	t.insertIntoParent(parent, promoted, half)
}

// Get implements kv.Engine. The descent consults each interior node's
// buffer first: a buffered message is always newer than anything deeper
// (flushes only push messages down), so the topmost hit answers the
// lookup without leaf I/O.
func (t *Tree) Get(now sim.Duration, key []byte) (sim.Duration, []byte, bool, error) {
	now, err := t.Core.BeginGet(now, key)
	if err != nil {
		return now, nil, false, err
	}

	n := t.Core.Node(t.Core.Root())
	target := kv.NewTarget(key)
	for !n.Leaf {
		ci := n.ChildFor(target)
		if m := n.Buf.Get(ci, target); m != nil {
			t.io.BufferHits++
			if m.Del() {
				return now, nil, false, nil
			}
			t.Core.CountRead(len(key) + m.Vlen())
			return now, m.Val(), true, nil
		}
		n = t.Core.Node(n.Children[ci])
	}
	if now, err = t.Core.LoadForGet(now, n); err != nil {
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
	now, err := t.Core.BeginRead(now, start)
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
	leaf := t.Core.Node(t.Core.Root())
	for !leaf.Leaf {
		leaf = t.Core.Node(leaf.Children[leaf.ChildFor(target)])
	}
	idx := cowtree.SearchRecords(leaf.Entries, target)
	for limit > 0 && leaf != nil {
		now, err = t.Core.Load(now, leaf)
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
		if limit <= 0 || leaf.Next == cowtree.NilNode {
			break
		}
		leaf = t.Core.Node(leaf.Next)
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
	var walk func(id cowtree.NodeID)
	walk = func(id cowtree.NodeID) {
		n := t.Core.Node(id)
		if n.Leaf {
			return
		}
		first := n.ChildFor(start)
		c := msgCursor{bufs: n.Buf.Msgs, ci: first, i: cowtree.SearchRecords(n.Buf.Msgs[first], start)}
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
// nodes: the gauge of the ε trade-off (ROADMAP 2(i)), read by the buffer
// model test until a report takes it.
func (t *Tree) BufferedBytes() int64 {
	var b int64
	for _, n := range t.Core.Nodes() {
		if !n.Leaf {
			b += int64(n.Buf.Bytes)
		}
	}
	return b
}
