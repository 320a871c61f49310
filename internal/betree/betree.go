package betree

import (
	"bytes"
	"errors"
	"time"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/extalloc"
	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// ErrClosed is returned after Close.
var ErrClosed = errors.New("betree: tree is closed")

// metaMagic tags the checkpoint metadata files ("BEMT").
const metaMagic = 0x42454D54

// coreConfig maps the engine configuration onto the shared
// checkpoint/recovery core's knobs. The naming fields reproduce the
// pre-extraction on-device footprint exactly.
func coreConfig(cfg Config) cowtree.Config {
	return cowtree.Config{
		Name:                   "betree",
		MetaPrefix:             "bemeta",
		MetaMagic:              metaMagic,
		JournalPrefix:          "bjournal-",
		ChunkPages:             cfg.ChunkPages,
		CheckpointInterval:     cfg.CheckpointInterval,
		CheckpointPendingBytes: cfg.CheckpointPendingBytes,
		Content:                cfg.Content,
		DisableJournal:         cfg.DisableJournal,
	}
}

// Tree is the Bε-tree engine. The copy-on-write checkpoint/recovery
// discipline lives in the embedded cowtree core; the engine implements
// cowtree.RecoveryEngine over its node type.
type Tree struct {
	cfg       Config
	pivotMax  int // cached cfg.pivotBudget()
	bufferMax int // cached cfg.bufferBudget()
	fs        *extfs.FS

	file *extfs.File
	bm   *extalloc.Manager

	core cowtree.Core

	nodes  []*node // indexed by nodeID; ids are allocated sequentially
	root   nodeID
	nextID nodeID

	// Cache state: resident leaves in an LRU list (head = MRU). Interior
	// nodes (with their buffers) are pinned resident.
	lruHead, lruTail nodeID
	residentBytes    int64

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

	writeBuf []byte // reused serialization image (content mode)

	seq    uint64
	stats  kv.EngineStats
	io     IOStats
	closed bool
}

// IOStats exposes internal activity counters.
type IOStats struct {
	CacheHits      int64
	CacheMisses    int64
	Evictions      int64
	EvictionWrites int64
	Checkpoints    int64
	CheckpointPgs  int64
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
	if err := t.core.StartJournal(); err != nil {
		return nil, err
	}
	return t, nil
}

// registerNode adds a freshly allocated node to the id-indexed slice.
func (t *Tree) registerNode(n *node) {
	if int(n.id) != len(t.nodes) {
		panic("betree: node ids must be registered sequentially")
	}
	t.nodes = append(t.nodes, n)
}

func (t *Tree) newNode(leaf bool) *node {
	t.nextID++
	n := t.slab.Get()
	n.id = t.nextID
	n.leaf = leaf
	n.serialized = pageHeaderBytes
	if !leaf {
		n.pivotBytes = pageHeaderBytes
	}
	t.registerNode(n)
	t.markDirty(n)
	return n
}

func (t *Tree) markDirty(n *node) {
	if n.dirty {
		return
	}
	n.dirty = true
	t.core.TrackDirty(n.id)
}

func (t *Tree) clearDirty(n *node) {
	if n.dirty {
		n.dirty = false
		t.core.NoteClean()
	}
	// The node's entry in the core's transition log stays behind;
	// checkpoint snapshots filter on the dirty flag.
}

// ---- cowtree.Engine implementation ----

// Root implements cowtree.Engine.
func (t *Tree) Root() cowtree.NodeID { return t.root }

// Parent implements cowtree.Engine.
func (t *Tree) Parent(id cowtree.NodeID) cowtree.NodeID { return t.nodes[id].parent }

// Leaf implements cowtree.Engine.
func (t *Tree) Leaf(id cowtree.NodeID) bool { return t.nodes[id].leaf }

// Children implements cowtree.Engine.
func (t *Tree) Children(id cowtree.NodeID) []cowtree.NodeID { return t.nodes[id].children }

// Dirty implements cowtree.Engine.
func (t *Tree) Dirty(id cowtree.NodeID) bool { return t.nodes[id].dirty }

// NeedsWrite implements cowtree.Engine.
func (t *Tree) NeedsWrite(id cowtree.NodeID) bool {
	n := t.nodes[id]
	return n.dirty || n.disk.Pages == 0
}

// AppendNeedsWrite implements cowtree.Engine.
func (t *Tree) AppendNeedsWrite(id cowtree.NodeID, dst []cowtree.NodeID) []cowtree.NodeID {
	for _, c := range t.nodes[id].children {
		if n := t.nodes[c]; n.dirty || n.disk.Pages == 0 {
			dst = append(dst, c)
		}
	}
	return dst
}

// Live implements cowtree.Engine (nodes are never deallocated).
func (t *Tree) Live(id cowtree.NodeID) bool { return t.nodes[id] != nil }

// DiskExtent implements cowtree.Engine.
func (t *Tree) DiskExtent(id cowtree.NodeID) cowtree.Extent { return t.nodes[id].disk }

// SerializedBytes implements cowtree.Engine.
func (t *Tree) SerializedBytes(id cowtree.NodeID) int { return t.nodes[id].serialized }

// MarkDirty implements cowtree.Engine.
func (t *Tree) MarkDirty(id cowtree.NodeID) { t.markDirty(t.nodes[id]) }

// WriteNode implements cowtree.Engine.
func (t *Tree) WriteNode(now sim.Duration, id cowtree.NodeID) (sim.Duration, error) {
	return t.writeNode(now, t.nodes[id])
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
	cio := t.core.IO()
	io.Checkpoints = cio.Checkpoints
	io.CheckpointPgs = cio.CheckpointPgs
	return io
}

// DiskUsageBytes implements kv.Engine.
func (t *Tree) DiskUsageBytes() int64 { return t.fs.UsedBytes() }

// Err returns the sticky fatal error, if any.
func (t *Tree) Err() error { return t.core.Err() }

// ---- cache (LRU over resident leaves; interiors pinned) ----

func (t *Tree) admit(n *node) {
	if n.resident {
		t.touch(n)
		return
	}
	n.resident = true
	n.lruOlder = t.lruHead
	n.lruNewer = nilNode
	if t.lruHead != nilNode {
		t.nodes[t.lruHead].lruNewer = n.id
	}
	t.lruHead = n.id
	if t.lruTail == nilNode {
		t.lruTail = n.id
	}
	t.residentBytes += int64(n.serialized)
}

func (t *Tree) touch(n *node) {
	if t.lruHead == n.id {
		return
	}
	if n.lruNewer != nilNode {
		t.nodes[n.lruNewer].lruOlder = n.lruOlder
	}
	if n.lruOlder != nilNode {
		t.nodes[n.lruOlder].lruNewer = n.lruNewer
	}
	if t.lruTail == n.id {
		t.lruTail = n.lruNewer
	}
	n.lruOlder = t.lruHead
	n.lruNewer = nilNode
	if t.lruHead != nilNode {
		t.nodes[t.lruHead].lruNewer = n.id
	}
	t.lruHead = n.id
}

func (t *Tree) unlink(n *node) {
	if !n.resident {
		return
	}
	if n.lruNewer != nilNode {
		t.nodes[n.lruNewer].lruOlder = n.lruOlder
	}
	if n.lruOlder != nilNode {
		t.nodes[n.lruOlder].lruNewer = n.lruNewer
	}
	if t.lruHead == n.id {
		t.lruHead = n.lruOlder
	}
	if t.lruTail == n.id {
		t.lruTail = n.lruNewer
	}
	n.resident = false
	n.lruNewer, n.lruOlder = nilNode, nilNode
	t.residentBytes -= int64(n.serialized)
}

// evictToFit writes back and drops LRU leaves until the cache fits,
// charging the eviction I/O to the foreground.
func (t *Tree) evictToFit(now sim.Duration) (sim.Duration, error) {
	for t.residentBytes > t.cfg.CacheBytes {
		victimID := t.lruTail
		if victimID == nilNode {
			break
		}
		victim := t.nodes[victimID]
		if victim.id == t.root {
			break // never evict a root leaf (pre-first-split only)
		}
		t.unlink(victim)
		if victim.dirty {
			var err error
			now, err = t.writeNode(now, victim)
			if err != nil {
				t.core.Fail(err)
				return now, err
			}
			t.io.EvictionWrites++
		}
		t.io.Evictions++
	}
	return now, nil
}

// writeNode reconciles a node to a fresh extent (copy-on-write). The old
// location is released lazily at the next checkpoint commit.
func (t *Tree) writeNode(now sim.Duration, n *node) (sim.Duration, error) {
	ps := t.fs.PageSize()
	np := int64((n.serialized + ps - 1) / ps)
	if n.disk.Pages > 0 {
		t.bm.ReleaseDeferred(n.disk)
	}
	ext, err := t.bm.Alloc(np)
	if err != nil {
		return now, err
	}
	var data []byte
	if t.cfg.Content {
		data = t.serializeImage(n, int(np)*ps)
	}
	done, err := t.file.WriteAt(now, ext.Start, int(np), data)
	if err != nil {
		return now, err
	}
	n.disk = ext
	n.everOnDisk = true
	t.clearDirty(n)
	if n.parent != nilNode {
		t.markDirty(t.nodes[n.parent])
	}
	return done, nil
}

// serializeImage produces the zero-padded on-disk image of a node in the
// tree's reused write buffer (the block device copies written bytes, so
// aliasing the scratch across writes is safe).
func (t *Tree) serializeImage(n *node, size int) []byte {
	buf := serializeNode(t.writeBuf[:0], n, func(id nodeID) fileExtent {
		return t.nodes[id].disk
	})
	if cap(buf) < size {
		grown := make([]byte, size)
		copy(grown, buf)
		buf = grown
	} else {
		ln := len(buf)
		buf = buf[:size]
		clear(buf[ln:])
	}
	t.writeBuf = buf
	return buf
}

// loadLeaf charges the read I/O for a non-resident leaf and admits it.
func (t *Tree) loadLeaf(now sim.Duration, n *node) (sim.Duration, error) {
	if n.resident {
		t.io.CacheHits++
		t.touch(n)
		return now, nil
	}
	t.io.CacheMisses++
	if n.everOnDisk {
		var err error
		now, err = t.file.ReadAt(now, n.disk.Start, int(n.disk.Pages), nil)
		if err != nil {
			return now, err
		}
	}
	t.admit(n)
	return now, nil
}

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

	now, err = t.evictToFit(now)
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
	root := t.nodes[t.root]
	if root.leaf {
		var err error
		now, err = t.loadLeaf(now, root)
		if err != nil {
			return now, err
		}
		delta := root.insertLeaf(&t.mem, msg, val)
		t.residentBytes += int64(delta)
		t.markDirty(root)
		t.splitLeafToFit(root)
		return now, nil
	}
	if t.bufferMax <= 0 {
		// Degenerate B+Tree mode: descend to the leaf directly.
		return t.applyToLeaf(now, msg, val)
	}
	root.bufInsert(&t.mem, msg, val, false)
	t.markDirty(root)
	return t.drainOverflow(now)
}

// drainOverflow flushes the root and any split-orphaned interior nodes
// until every buffer fits its budget.
func (t *Tree) drainOverflow(now sim.Duration) (sim.Duration, error) {
	var err error
	for {
		root := t.nodes[t.root] // flushing can grow a new root
		if !root.leaf && root.bufBytes > t.bufferMax {
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
		for !n.leaf && n.bufBytes > t.bufferMax {
			if now, err = t.flushInterior(now, n); err != nil {
				return now, err
			}
		}
	}
}

// applyToLeaf descends to the leaf covering the message key and inserts
// it there (the ε = 1 degenerate path).
func (t *Tree) applyToLeaf(now sim.Duration, msg message, val []byte) (sim.Duration, error) {
	n := t.nodes[t.root]
	for !n.leaf {
		n = t.nodes[n.children[n.childFor(msg.key)]]
	}
	var err error
	now, err = t.loadLeaf(now, n)
	if err != nil {
		return now, err
	}
	delta := n.insertLeaf(&t.mem, msg, val)
	t.residentBytes += int64(delta)
	t.markDirty(n)
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
	child := t.nodes[n.children[bestCi]]
	t.io.BufferFlushes++
	t.io.FlushedMessages += int64(len(batch))

	var err error
	if child.leaf {
		now, err = t.loadLeaf(now, child)
		if err != nil {
			return now, err
		}
		delta := child.insertBatch(&t.mem, batch)
		if child.resident {
			t.residentBytes += int64(delta)
		}
		t.markDirty(child)
	} else {
		for i := range batch {
			child.bufInsert(&t.mem, batch[i], nil, true)
		}
		t.markDirty(child)
	}

	// The batch's messages now live in the child: retire its array.
	t.mem.msgs.Put(batch)
	n.bufs[bestCi], n.bufSizes[bestCi] = nil, 0
	n.bufBytes -= bestBytes
	n.serialized -= bestBytes
	t.markDirty(n)

	if child.leaf {
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
	for leaf.serialized > t.cfg.LeafPageBytes && len(leaf.entries) > 1 {
		t.nextID++
		right, sep := leaf.splitLeaf(&t.mem, t.slab.Get(), t.nextID)
		t.registerNode(right)
		t.markDirty(right)
		t.markDirty(leaf)
		t.io.LeafSplits++
		if leaf.resident {
			t.admit(right)
			// admit charged right.serialized, but the moved entries were
			// already counted while they lived in leaf; only the new page
			// header is genuinely new.
			t.residentBytes -= int64(right.serialized - pageHeaderBytes)
		}
		t.insertIntoParent(leaf, sep, right)
		t.splitLeafToFit(right)
	}
}

// insertIntoParent links a new right sibling under the parent, splitting
// interiors (and growing a new root) as needed.
func (t *Tree) insertIntoParent(left *node, sep []byte, right *node) {
	if left.id == t.root {
		newRoot := t.newNode(false)
		newRoot.children = []nodeID{left.id, right.id}
		newRoot.seps = [][]byte{t.mem.arena.Clone(sep)}
		newRoot.bufs, newRoot.bufSizes = make([][]message, 2), make([]int, 2)
		newRoot.recomputeSerialized()
		newRoot.refreshSepCache()
		left.parent = newRoot.id
		right.parent = newRoot.id
		t.root = newRoot.id
		return
	}
	parent := t.nodes[left.parent]
	idx := parent.childIndex(left.id)
	parent.insertChild(&t.mem, idx, sep, right.id)
	right.parent = parent.id
	t.markDirty(parent)
	if parent.pivotBytes > t.pivotMax {
		t.splitInteriorNode(parent)
	}
}

// splitInteriorNode splits an interior node (pivots and child buffers)
// and reparents moved children. A half left over its buffer budget is
// queued for the apply path to flush.
func (t *Tree) splitInteriorNode(n *node) {
	t.nextID++
	right, promoted := n.splitInterior(t.slab.Get(), t.nextID)
	t.registerNode(right)
	t.markDirty(right)
	t.markDirty(n)
	t.io.InteriorSplits++
	for _, c := range right.children {
		t.nodes[c].parent = right.id
	}
	if n.bufBytes > t.bufferMax {
		t.overfull = append(t.overfull, n.id)
	}
	if right.bufBytes > t.bufferMax {
		t.overfull = append(t.overfull, right.id)
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

	n := t.nodes[t.root]
	for !n.leaf {
		ci := n.childFor(key)
		if m := n.bufGet(ci, key); m != nil {
			t.io.BufferHits++
			if m.del {
				return now, nil, false, nil
			}
			t.stats.UserBytesRead += int64(len(key)) + int64(m.vlen)
			return now, m.val(), true, nil
		}
		n = t.nodes[n.children[ci]]
	}
	var err error
	now, err = t.loadLeaf(now, n)
	if err != nil {
		t.core.Fail(err)
		return now, nil, false, err
	}
	now, err = t.evictToFit(now)
	if err != nil {
		return now, nil, false, err
	}
	i := n.search(key)
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

	stream := t.newMsgStream(start)
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
	leaf := t.nodes[t.root]
	for !leaf.leaf {
		leaf = t.nodes[leaf.children[leaf.childFor(start)]]
	}
	idx := leaf.search(start)
	for limit > 0 && leaf != nil {
		var err error
		now, err = t.loadLeaf(now, leaf)
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
		if now, err = t.evictToFit(now); err != nil {
			return now, nil, err
		}
		if limit <= 0 || leaf.next == nilNode {
			break
		}
		leaf = t.nodes[leaf.next]
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
func (t *Tree) newMsgStream(start []byte) *msgStream {
	s := &msgStream{}
	var walk func(id nodeID)
	walk = func(id nodeID) {
		n := t.nodes[id]
		if n.leaf {
			return
		}
		first := n.childFor(start)
		c := msgCursor{bufs: n.bufs, ci: first, i: searchMsgs(n.bufs[first], start)}
		if c.head() != nil {
			s.cursors = append(s.cursors, c)
		}
		for ci := first; ci < len(n.children); ci++ {
			walk(n.children[ci])
		}
	}
	walk(t.root)
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
	n := t.nodes[t.root]
	for !n.leaf {
		d++
		n = t.nodes[n.children[0]]
	}
	return d
}

// NodeCount returns the numbers of leaf and interior nodes.
func (t *Tree) NodeCount() (leaves, interiors int) {
	for _, n := range t.nodes {
		if n == nil {
			continue
		}
		if n.leaf {
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
		if n != nil && !n.leaf {
			b += int64(n.bufBytes)
		}
	}
	return b
}
