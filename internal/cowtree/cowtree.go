// Package cowtree is the copy-on-write core shared by the page/node-based
// tree engines (B+Tree, Bε-tree). It owns the Node that is every node of
// both trees — identity, position in the tree, on-disk extent, cache
// residency, a leaf's entries and, behind one pointer, an interior's
// pivot section and, in a Bε-tree, its message buffers — and every
// mechanism that acts on it alone:
//
//   - the extent allocator that places node images inside the
//     collection file (lowest-offset first fit, checkpoint-deferred
//     release),
//   - the one id-indexed node table (NewNode makes every node the
//     engines create) and the root id, with the allocators nodes and
//     records are drawn from,
//   - dirty-set tracking: an id-indexed dirty bitmap beside the node
//     table, and an append-order transition log filtered on it at
//     snapshot time. A node with no extent is always dirty — NewNode
//     marks every node it makes, recovery gives every node it loads
//     its extent, and Check asserts it — so the bitmap alone says
//     which nodes a checkpoint must write,
//   - the leaf cache: LRU list, resident byte count, hit/miss accounting
//     and foreground eviction with write-back,
//   - the copy-on-write node write (fresh extent, deferred release of the
//     old one, parent dirtied),
//   - the checkpoint job: dirty-ancestor-closure snapshot, bottom-up
//     write order, writeSubtreeClean for split-orphaned descendants,
//     root-spine write at commit, metadata write, deferred-extent
//     release, journal rotation and recycling,
//   - the checkpoint metadata codec (its double-buffered slot pair is
//     a wal.Slots, the journal's segments a wal.Log),
//   - recovery: tree walk from the checkpointed root, free-list
//     reconstruction, leaf-chain rebuild, journal replay through the
//     engine's apply path and the checkpoint-floor ("fsync lie")
//     refusal,
//   - the tree shell (shell.go): the configuration both engines share
//     (Tuning, with its defaults, Validate and knob binder), Open and
//     Recover, the kv.Engine lifecycle (FlushAll, Quiesce, Close, group
//     commit, Stats, DiskUsageBytes, Err), the KV sequence counter, and
//     the bracket around every operation (BeginWrite, AppendJournal,
//     EndWrite, BeginGet/BeginRead, LoadForGet),
//   - the leaf record both engines store (record.go): its inline-word
//     key, its word-or-byte compares and search, the copy-on-retain rule
//     (RecordArena.Own), the one upsert of leaves and buffers
//     (InsertRecord) and the entry codec both images share,
//   - the interior pivot section both engines keep (pivots.go, in
//     Node.Interior): separators, child ids, the separator word cache,
//     child lookup, child insert, the half split, the section's
//     footprint and its codec; and the new root, child link and
//     interior split built on it,
//   - the Bε-tree's message buffers (buffers.go, Interior.Buf) with their
//     lookup, upsert, cut, split and codec,
//   - the leaf payload both engines keep (leaf.go, Node.Entries): the
//     leaf upsert, the split guard and the half split, and the node
//     image — header, then a leaf's entries or an interior's pivot
//     section and buffered messages — written and parsed under the
//     engine's magic; recovery notes a parsed node's sequence numbers
//     itself.
//
// Both engines' nodes are plain Nodes, reached through Core.Node. Both
// embed Core in their tree — so the core's lifecycle methods are the
// engine's kv.Engine methods — keep only their magic and their policy
// (descent, when to split, the Bε-tree's flush, batch apply and scan
// merge), and implement the four Tree methods the core cannot do for
// them: serialize a node (AppendImage, the shared image under the
// engine's magic), parse one (MaterializeNode), apply a replayed
// journal record (ApplyRecovered) and install a fresh tree's root leaf
// (NewRootLeaf).
// Three crash-recovery bugs once had to be fixed twice, once per copied
// implementation; the discipline lives here once, pinned by
// engine-agnostic tests over a stub engine in this package, by the
// golden engine trace over both real engines and by their recovery
// regression suites.
package cowtree

import (
	"fmt"

	"ptsbench/internal/arena"
	"ptsbench/internal/deverr"
	"ptsbench/internal/extfs"
	"ptsbench/internal/freeset"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// NodeID identifies an in-memory tree node. IDs are handed out
// sequentially by Core.Register and never reused; 0 is the nil node.
type NodeID uint32

// NilNode is the zero NodeID.
const NilNode NodeID = 0

// Extent is a contiguous run of pages inside the collection file.
// Pages == 0 means "no extent" (a node never written).
type Extent = freeset.Extent

// Node is every tree node, in both engines: the header, a leaf's
// entries and, behind one pointer, an interior's part (its pivots and,
// in a Bε-tree, its message buffers). Leaves outnumber interiors by
// about the fanout, so a leaf carries only leaf state: the pointer is
// nil on a leaf, and code that can reach one tests Leaf before it reads
// Children, Seps or Buf. The core reads and writes these fields
// directly — on the engine's op path too, where a method call per
// descent step or per child scanned would be the cost.
type Node struct {
	ID     NodeID
	Parent NodeID // NilNode for the root
	Next   NodeID // leaves chain left-to-right for range scans

	Leaf bool
	// Resident leaves are on the core's LRU list (interior nodes are
	// pinned and never listed).
	Resident bool

	// Interior is an interior node's part: its pivots and buffers (nil
	// on leaves). Its fields and the pivot methods promote to Node.
	*Interior

	// Serialized is the node's current serialized size in bytes, which
	// the engine tracks incrementally.
	Serialized int

	// Disk is the on-disk location (pages within the collection file);
	// Pages == 0 means never written.
	Disk Extent

	lruNewer, lruOlder NodeID

	// Entries are a leaf's records, sorted by key (empty for interior
	// nodes; see leaf.go). A single record slice keeps an insert to one
	// shift and a split to one allocation.
	Entries []Record
}

// Engine is what the core cannot do itself outside recovery. It is not
// on the engine's steady-state op path in accounting mode — the core
// calls it while writing a node in content mode — so the interface
// indirection costs nothing per Put/Get.
type Engine interface {
	// AppendImage appends the serialized image of the node with the given
	// id to dst and returns it; child references are the children's
	// current Disk extents. Content mode only.
	AppendImage(dst []byte, id NodeID) []byte
}

// config is the core's view of its engine: the on-device names and the
// shared tuning.
type config struct {
	Naming
	Tuning
}

// IOStats counts the core's cache and checkpoint activity.
type IOStats struct {
	CacheHits      int64
	CacheMisses    int64
	Evictions      int64
	EvictionWrites int64 // dirty evictions (nodes written)
	Checkpoints    int64
	CheckpointPgs  int64 // nodes written by checkpoints
}

// Core owns the shared state of one tree. Engines embed it by value;
// Open or Recover attaches it to the device.
type Core struct {
	eng     Engine
	fs      *extfs.FS
	file    *extfs.File
	extents extentAllocator
	cfg     config

	// seq is the KV sequence high-water mark (persisted in the
	// checkpoint metadata); stats counts the kv.Engine operations.
	seq    uint64
	stats  kv.EngineStats
	closed bool

	// nodes is indexed by NodeID (index 0 is NilNode). The node arenas
	// back the nodes NewNode makes and their interiors' parts, arena and
	// records what the stored records keep and their arrays: nodes and
	// retained bytes are immortal (ids are never reused), so chunk and
	// pool allocation keep the steady-state op path allocation-free.
	nodes       []*Node
	root        NodeID
	nodeMem     arena.Arena[Node]
	interiorMem arena.Arena[Interior]
	arena       RecordArena
	records     arena.Pool[Record]

	// dirty is indexed by NodeID like nodes: the node needs writing
	// before eviction / at the next checkpoint. MarkDirty sets it, Write
	// clears it. Every node without an extent is dirty, so it is also
	// the whole answer to "must this child be written before an image
	// referencing it is serialized" — a byte per id the checkpoint scans
	// without touching the node headers.
	dirty []bool
	// dirtyIDs is the append-order log of false->true dirty
	// transitions; dirtyCount tracks how many nodes are currently
	// dirty. Snapshots filter stale entries on the bitmap.
	dirtyIDs   []NodeID
	dirtyCount int

	// Cache state: resident leaves in an LRU list (head = MRU).
	lruHead, lruTail NodeID
	residentBytes    int64

	journal *wal.Log
	group   bool // group commit open: per-record syncs deferred

	ckptW    *sim.Worker
	lastCkpt sim.Duration
	metaGen  uint64
	meta     wal.Slots[Meta]

	io       IOStats
	fatal    error
	metaBuf  []byte // reused page-sized metadata write image (content mode)
	writeBuf []byte // reused node write image (content mode)
	// sepBuf holds the kv.KeySize separator a split hands the parent
	// (SplitLeaf, SplitInterior), which must read it before the next
	// split. A caller-owned buffer, as SplitHalf takes, would escape
	// through the parent's insert and cost a heap object per split.
	sepBuf [kv.KeySize]byte

	// Checkpoint scratch, reused across checkpoints (a retired job's
	// slices return to the pool at commit; concurrent jobs — possible
	// only through the white-box test path that holds a job while
	// triggering another — each draw their own).
	jobPool arena.Spare[Job]
	inJob   []uint32 // id-indexed epoch stamps replacing a per-job map
	epoch   uint32
}

// setup wires the core to its engine and device state; node images are
// allocated inside file, which grows sixteen leaves at a time. The
// journal is not created here: Open starts it once the root leaf is in
// place, finishRecovery after replay.
func (c *Core) setup(eng Engine, fs *extfs.FS, file *extfs.File, n Naming, tune Tuning) {
	c.eng = eng
	c.fs = fs
	c.file = file
	c.extents = newExtentAllocator(file, int64(tune.LeafPageBytes/fs.PageSize())*16)
	c.cfg = config{n, tune}
	c.nodes = make([]*Node, 1, 64) // index 0 is NilNode
	c.dirty = make([]bool, 1, 64)
	c.journal = wal.NewLog(fs, n.JournalPrefix, tune.Content, tune.DisableJournal)
	c.meta = metaSlots(fs, n)
	c.ckptW = sim.NewWorker(n.Name + "-checkpoint")
	c.arena.Chunk = recordChunkBytes
}

// Register enters a node into the table under the next sequential id,
// which it stores in n.ID. A node enters clean: NewNode marks the nodes
// it makes dirty, and recovery gives a node it loads its extent.
func (c *Core) Register(n *Node) {
	n.ID = NodeID(len(c.nodes))
	c.nodes = append(c.nodes, n)
	c.dirty = append(c.dirty, false)
}

// NewNode makes every node the engines create: a zeroed leaf or
// interior from the node arena — an interior with its zeroed part from
// the interior arena — the bare header's size, registered and dirty.
func (c *Core) NewNode(leaf bool) *Node {
	n := c.nodeMem.New()
	n.Leaf = leaf
	if !leaf {
		n.Interior = c.interiorMem.New()
	}
	n.Serialized = PageHeaderBytes
	c.Register(n)
	c.MarkDirty(n)
	return n
}

// Node returns the node registered under id.
func (c *Core) Node(id NodeID) *Node { return c.nodes[id] }

// Nodes returns the node table in id order, without the nil node.
func (c *Core) Nodes() []*Node { return c.nodes[1:] }

// Records returns the pool that recycles the tree's record arrays.
func (c *Core) Records() *arena.Pool[Record] { return &c.records }

// Arena returns the arena backing what stored records keep.
func (c *Core) Arena() *RecordArena { return &c.arena }

// Root returns the current root node id.
func (c *Core) Root() NodeID { return c.root }

// SetRoot makes id the root (a fresh tree's first leaf, or the node a
// root split grew).
func (c *Core) SetRoot(id NodeID) { c.root = id }

// IO returns the core's counters.
func (c *Core) IO() IOStats { return c.io }

// Fail records a fatal error (the first one wins). The error is
// latched: even when the root cause was a transient device error, the
// core is permanently wedged, so deverr.IsTransient must report false
// for everything returned from here on — otherwise the serving layer
// would retry a dead engine instead of failing the replica over.
func (c *Core) Fail(err error) {
	if c.fatal == nil {
		c.fatal = deverr.Latch(err)
	}
}

// Pump drives the background checkpoint worker up to now.
func (c *Core) Pump(now sim.Duration) { c.ckptW.Pump(now) }

// ---- dirty tracking ----

// MarkDirty flags the node for the next checkpoint, logging the
// false->true transition once.
func (c *Core) MarkDirty(n *Node) {
	if c.dirty[n.ID] {
		return // already tracked for the next checkpoint
	}
	c.dirty[n.ID] = true
	c.dirtyCount++
	c.dirtyIDs = append(c.dirtyIDs, n.ID)
}

// DirtyCount reports the number of currently dirty nodes.
func (c *Core) DirtyCount() int { return c.dirtyCount }

// ---- cache (LRU over resident leaves; interior nodes are pinned) ----

// Admit makes a leaf resident at the MRU end, charging its serialized
// size (an already-resident leaf is only touched).
func (c *Core) Admit(n *Node) {
	if n.Resident {
		c.Touch(n)
		return
	}
	n.Resident = true
	c.pushHead(n)
	if c.lruTail == NilNode {
		c.lruTail = n.ID
	}
	c.residentBytes += int64(n.Serialized)
}

// Touch moves a resident leaf to the MRU end.
func (c *Core) Touch(n *Node) {
	if c.lruHead == n.ID {
		return
	}
	c.unlink(n)
	c.pushHead(n)
}

func (c *Core) pushHead(n *Node) {
	n.lruOlder = c.lruHead
	n.lruNewer = NilNode
	if c.lruHead != NilNode {
		c.nodes[c.lruHead].lruNewer = n.ID
	}
	c.lruHead = n.ID
}

// unlink takes a listed leaf out of the list. Its own links go stale;
// pushHead overwrites both when the leaf is next listed.
func (c *Core) unlink(n *Node) {
	if n.lruNewer != NilNode {
		c.nodes[n.lruNewer].lruOlder = n.lruOlder
	}
	if n.lruOlder != NilNode {
		c.nodes[n.lruOlder].lruNewer = n.lruNewer
	}
	if c.lruHead == n.ID {
		c.lruHead = n.lruOlder
	}
	if c.lruTail == n.ID {
		c.lruTail = n.lruNewer
	}
}

// Load makes a leaf resident for an operation: a hit touches it, a miss
// is Fetch.
func (c *Core) Load(now sim.Duration, n *Node) (sim.Duration, error) {
	if n.Resident {
		c.io.CacheHits++
		c.Touch(n)
		return now, nil
	}
	return c.Fetch(now, n)
}

// Fetch counts a miss on a non-resident leaf, charges the read when the
// leaf has an on-disk image (one never written costs none), and admits
// it. It returns the read's completion time, so a caller may issue
// several at one virtual instant (scan prefetch) and wait for the latest.
func (c *Core) Fetch(now sim.Duration, n *Node) (sim.Duration, error) {
	c.io.CacheMisses++
	if n.Disk.Pages > 0 {
		var err error
		now, err = c.file.ReadAt(now, n.Disk.Start, int(n.Disk.Pages), nil)
		if err != nil {
			return now, err
		}
	}
	c.Admit(n)
	return now, nil
}

// Resize adjusts the resident byte count by delta, for a resident leaf
// whose Serialized the engine just changed by as much.
func (c *Core) Resize(delta int) { c.residentBytes += int64(delta) }

// EvictToFit writes back and drops LRU leaves until the cache fits,
// charging the eviction I/O to the foreground — WiredTiger's application
// threads do exactly this under cache pressure. A write-back error is
// fatal to the tree.
func (c *Core) EvictToFit(now sim.Duration) (sim.Duration, error) {
	for c.residentBytes > c.cfg.CacheBytes {
		if c.lruTail == NilNode || c.lruTail == c.root {
			// Never evict the root; with a tiny cache and a root leaf
			// this can only happen before the first split.
			break
		}
		victim := c.nodes[c.lruTail]
		c.unlink(victim)
		victim.Resident = false
		c.residentBytes -= int64(victim.Serialized)
		if c.dirty[victim.ID] {
			var err error
			now, err = c.Write(now, victim)
			if err != nil {
				c.Fail(err)
				return now, err
			}
			c.io.EvictionWrites++
		}
		c.io.Evictions++
	}
	return now, nil
}

// Check audits the node layout, the leaf cache and the dirty set: a
// leaf has no interior part and every interior has one, with buffers
// exactly when the engine keeps them (Naming.Buffered); the LRU list is
// linked consistently both ways and ends at the tail, every listed node
// is a resident leaf, every resident node is listed, and the listed
// sizes sum to the resident byte count; the dirty bitmap covers the
// node table, counts dirtyCount nodes, and holds every node that has no
// extent; every child's Parent is the node listing it; a Bε-tree's
// buffers are where ChildFor routes their messages, sorted and exactly
// counted (checkBuffers).
func (c *Core) Check() error {
	if len(c.dirty) != len(c.nodes) {
		return fmt.Errorf("%s: dirty bitmap covers %d ids, node table %d", c.cfg.Name, len(c.dirty), len(c.nodes))
	}
	dirty := 0
	for id, n := range c.nodes[1:] {
		if c.dirty[id+1] {
			dirty++
		} else if n.Disk.Pages == 0 {
			return fmt.Errorf("%s: node %d has no extent and is not dirty", c.cfg.Name, id+1)
		}
	}
	if dirty != c.dirtyCount {
		return fmt.Errorf("%s: %d dirty nodes, dirtyCount says %d", c.cfg.Name, dirty, c.dirtyCount)
	}
	for id, n := range c.nodes[1:] {
		switch {
		case n.Leaf && n.Interior != nil:
			return fmt.Errorf("%s: leaf %d has an interior part", c.cfg.Name, id+1)
		case n.Leaf:
			continue
		case n.Interior == nil:
			return fmt.Errorf("%s: interior %d has no interior part", c.cfg.Name, id+1)
		case n.buffered() != c.cfg.Buffered:
			return fmt.Errorf("%s: interior %d has buffers=%v, the engine keeps them=%v", c.cfg.Name, id+1, n.buffered(), c.cfg.Buffered)
		}
		for _, ch := range n.Children {
			if p := c.nodes[ch].Parent; p != NodeID(id+1) {
				return fmt.Errorf("%s: node %d lists child %d, whose parent is %d", c.cfg.Name, id+1, ch, p)
			}
		}
		if err := n.checkBuffers(); err != nil {
			return fmt.Errorf("%s: %w", c.cfg.Name, err)
		}
	}
	var bytes int64
	listed, prev := 0, NilNode
	for id := c.lruHead; id != NilNode; id = c.nodes[id].lruOlder {
		n := c.nodes[id]
		switch {
		case listed >= len(c.nodes):
			return fmt.Errorf("%s: LRU list cycles", c.cfg.Name)
		case !n.Resident || !n.Leaf:
			return fmt.Errorf("%s: node %d on the LRU list: resident=%v leaf=%v", c.cfg.Name, id, n.Resident, n.Leaf)
		case n.lruNewer != prev:
			return fmt.Errorf("%s: node %d links back to %d, reached from %d", c.cfg.Name, id, n.lruNewer, prev)
		}
		bytes += int64(n.Serialized)
		listed++
		prev = id
	}
	if prev != c.lruTail {
		return fmt.Errorf("%s: LRU list ends at %d, tail is %d", c.cfg.Name, prev, c.lruTail)
	}
	resident := 0
	for _, n := range c.nodes[1:] {
		if n.Resident {
			resident++
		}
	}
	if resident != listed {
		return fmt.Errorf("%s: %d resident nodes, %d on the LRU list", c.cfg.Name, resident, listed)
	}
	if bytes != c.residentBytes {
		return fmt.Errorf("%s: listed leaves hold %d bytes, resident count says %d", c.cfg.Name, bytes, c.residentBytes)
	}
	return nil
}

// ---- node write ----

// Write reconciles a node to a fresh extent (copy-on-write). The old
// location is released lazily — it becomes reusable only after the next
// checkpoint commits — so the images a completed checkpoint references
// survive until a newer checkpoint replaces them (WiredTiger's
// checkpoint avail-list discipline, required for crash recovery).
func (c *Core) Write(now sim.Duration, n *Node) (sim.Duration, error) {
	ps := c.fs.PageSize()
	pages := (n.Serialized + ps - 1) / ps
	if n.Disk.Pages > 0 {
		c.extents.releaseDeferred(n.Disk)
	}
	ext, err := c.extents.alloc(int64(pages))
	if err != nil {
		return now, err
	}
	var data []byte
	if c.cfg.Content {
		data = c.image(n.ID, pages*ps)
	}
	done, err := c.file.WriteAt(now, ext.Start, pages, data)
	if err != nil {
		return now, err
	}
	n.Disk = ext
	if c.dirty[n.ID] {
		// The node's entry in the transition log stays behind; checkpoint
		// snapshots filter on the bitmap, so a stale id is skipped for free.
		c.dirty[n.ID] = false
		c.dirtyCount--
	}
	// Reconciling a child moves it on disk; the parent's reference
	// changes, which dirties the parent (it will be written at the next
	// checkpoint).
	if n.Parent != NilNode {
		c.MarkDirty(c.nodes[n.Parent])
	}
	return done, nil
}

// image produces the zero-padded on-disk image of a node in the reused
// write buffer (the block device copies written bytes, so aliasing the
// scratch across writes is safe).
func (c *Core) image(id NodeID, size int) []byte {
	buf := c.eng.AppendImage(c.writeBuf[:0], id)
	if cap(buf) < size {
		grown := make([]byte, size)
		copy(grown, buf)
		buf = grown
	} else {
		n := len(buf)
		buf = buf[:size]
		clear(buf[n:])
	}
	c.writeBuf = buf
	return buf
}

// ---- checkpoint scheduling ----

// MaybeCheckpoint starts a checkpoint when the interval elapsed — or the
// deferred-release backlog has grown too large — and none is running.
// It waits while a group commit is open: starting a checkpoint rotates
// the journal, and the group's records must share the one segment its
// sync covers (EndGroupCommit calls it once the group is synced).
func (c *Core) MaybeCheckpoint(now sim.Duration) {
	if c.group || c.ckptW.QueueLen() > 0 {
		return
	}
	intervalDue := now-c.lastCkpt >= c.cfg.CheckpointInterval
	pendingDue := c.extents.pendingTotal*int64(c.fs.PageSize()) >= c.cfg.CheckpointPendingBytes
	if !intervalDue && !pendingDue {
		return
	}
	c.lastCkpt = now
	job, err := c.NewCheckpointJob()
	if err != nil {
		c.Fail(err)
		return
	}
	if job != nil {
		c.ckptW.Submit(job)
	}
}

// Checkpoint runs a full checkpoint synchronously: drain in-flight
// background work, snapshot, write, commit. It returns the virtual
// completion time.
func (c *Core) Checkpoint(now sim.Duration) (sim.Duration, error) {
	c.ckptW.Pump(now)
	end := c.ckptW.RunUntilDrained()
	if end < now {
		end = now
	}
	job, err := c.NewCheckpointJob()
	if err != nil {
		return end, err
	}
	if job != nil {
		c.ckptW.Submit(job)
		end = c.ckptW.RunUntilDrained()
	}
	if c.fatal != nil {
		return end, c.fatal
	}
	return end, nil
}

// Quiesce drains background checkpoint work.
func (c *Core) Quiesce(now sim.Duration) sim.Duration {
	c.ckptW.Pump(now)
	end := c.ckptW.RunUntilDrained()
	if end < now {
		end = now
	}
	return end
}
