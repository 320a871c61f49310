// Package cowtree is the copy-on-write core shared by the page/node-based
// tree engines (B+Tree, Bε-tree), the way internal/extalloc was
// extracted for their extent allocator. It owns the state every node has
// whatever it carries — the Node header: identity, position in the tree,
// dirty flag, on-disk extent, cache residency — and every mechanism that
// acts on that state alone:
//
//   - the id-indexed node table and the root id,
//   - dirty-set tracking (append-order transition log, filtered on the
//     node flag at snapshot time),
//   - the leaf cache: LRU list, resident byte count, hit/miss accounting
//     and foreground eviction with write-back,
//   - the copy-on-write node write (fresh extent, deferred release of the
//     old one, parent dirtied),
//   - the checkpoint job: dirty-ancestor-closure snapshot, bottom-up
//     write order, writeSubtreeClean for split-orphaned descendants,
//     root-spine write at commit, metadata write, deferred-extent
//     release, journal rotation and recycling,
//   - the double-buffered checkpoint metadata codec,
//   - the journal segment pool,
//   - recovery: tree walk from the checkpointed root, free-list
//     reconstruction, leaf-chain rebuild, sequence-sorted journal replay
//     and stale-segment retirement.
//
// An engine embeds Node in its node type and a Core in its tree, keeps
// only its payload (entries, separators, buffers), and implements the
// four methods the core cannot do for it: serialize a node, parse one,
// apply a replayed journal record, report its sequence. PR 3 fixed three
// crash-recovery bugs twice — once per copied implementation; the
// discipline lives here once, pinned by engine-agnostic tests over a
// stub engine in this package, by the golden engine trace over both real
// engines and by their recovery regression suites.
package cowtree

import (
	"fmt"
	"time"

	"ptsbench/internal/deverr"
	"ptsbench/internal/extalloc"
	"ptsbench/internal/extfs"
	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// NodeID identifies an in-memory tree node. IDs are handed out
// sequentially by Core.Register and never reused; 0 is the nil node.
type NodeID uint32

// NilNode is the zero NodeID.
const NilNode NodeID = 0

// Extent aliases the shared allocator extent type.
type Extent = extalloc.Extent

// Node is the header every tree node carries; engines embed it in their
// node type beside the payload. The core reads and writes these fields
// directly — on the engine's op path too, where a method call per
// descent step or per child scanned would be the cost.
type Node struct {
	ID     NodeID
	Parent NodeID // NilNode for the root
	Next   NodeID // leaves chain left-to-right for range scans

	Leaf bool
	// Dirty means the node needs writing before eviction / at the next
	// checkpoint. Set it through Core.MarkDirty only.
	Dirty bool
	// Resident leaves are on the core's LRU list (interior nodes are
	// pinned and never listed).
	Resident bool

	// Children are an interior node's child ids, in key order (nil for
	// leaves). The engine maintains them together with its separators.
	Children []NodeID

	// Serialized is the node's current serialized size in bytes, which
	// the engine tracks incrementally.
	Serialized int

	// Disk is the on-disk location (pages within the collection file);
	// Pages == 0 means never written.
	Disk Extent

	lruNewer, lruOlder NodeID
}

// needsWrite reports whether a checkpoint must write the node before an
// image referencing it can be serialized.
func (n *Node) needsWrite() bool { return n.Dirty || n.Disk.Pages == 0 }

// Engine is what the core cannot do itself. Neither method sits on the
// engine's steady-state op path in accounting mode — the core calls them
// while writing a node in content mode and while snapshotting a
// checkpoint — so the interface indirection costs nothing per Put/Get.
type Engine interface {
	// AppendImage appends the serialized image of the node with the given
	// id to dst and returns it; child references are the children's
	// current Disk extents. Content mode only.
	AppendImage(dst []byte, id NodeID) []byte
	// Seq returns the KV sequence high-water mark (persisted in the
	// checkpoint metadata).
	Seq() uint64
}

// Config carries the engine-specific constants and tuning the core
// needs. The naming fields keep each engine's on-device footprint
// exactly what it was before the extraction.
type Config struct {
	// Name tags errors and the checkpoint worker ("btree", "betree").
	Name string
	// MetaPrefix names the double-buffered metadata files
	// ("<prefix>-A"/"<prefix>-B").
	MetaPrefix string
	// MetaMagic is the 32-bit magic of the metadata codec.
	MetaMagic uint32
	// JournalPrefix prefixes journal segment file names; segments are
	// "<prefix>NNNNNN".
	JournalPrefix string

	// ChunkPages is the checkpoint I/O granularity per job step.
	ChunkPages int
	// CheckpointInterval triggers a checkpoint when this much virtual
	// time passed since the last one.
	CheckpointInterval time.Duration
	// CheckpointPendingBytes triggers a checkpoint when this many bytes
	// of freed extents await release.
	CheckpointPendingBytes int64
	// CacheBytes bounds the serialized bytes of resident leaves.
	CacheBytes int64
	// Content selects content mode (values materialized and written
	// through).
	Content bool
	// DisableJournal turns journaling off entirely.
	DisableJournal bool
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

// Core owns the shared state of one tree. Engines embed it by value and
// call Init once at construction.
type Core struct {
	eng  Engine
	fs   *extfs.FS
	file *extfs.File
	bm   *extalloc.Manager
	cfg  Config

	// nodes is indexed by NodeID (index 0 is NilNode). Engines keep a
	// slice of their own node type parallel to it, so neither side pays
	// an interface call or a type assertion to reach a node.
	nodes []*Node
	root  NodeID

	// dirtyIDs is the append-order log of false->true dirty
	// transitions; dirtyCount tracks how many nodes are currently
	// dirty. Snapshots filter stale entries on the node flag.
	dirtyIDs   []NodeID
	dirtyCount int

	// Cache state: resident leaves in an LRU list (head = MRU).
	lruHead, lruTail NodeID
	residentBytes    int64

	journal     *wal.Writer
	journalID   uint64
	journalPool []*wal.Writer // recycled segments awaiting reuse
	group       bool          // group commit open: per-record syncs deferred

	ckptW     *sim.Worker
	lastCkpt  sim.Duration
	metaGen   uint64
	metaSlots [2]string

	io       IOStats
	fatal    error
	metaBuf  []byte // reused page-sized metadata write image (content mode)
	writeBuf []byte // reused node write image (content mode)

	// Checkpoint scratch, reused across checkpoints (a retired job's
	// slices return to the pool at commit; concurrent jobs — possible
	// only through the white-box test path that holds a job while
	// triggering another — each draw their own).
	jobPool []*Job
	inJob   []uint32 // id-indexed epoch stamps replacing a per-job map
	epoch   uint32

	// recovered segment names, kept between journal replay and
	// FinishRecovery.
	segments []string
}

// Init wires the core to its engine and device state. The engine's
// journal is not created here; call StartJournal once the tree shell is
// ready (Open) or let FinishRecovery do it after replay (Recover).
func (c *Core) Init(eng Engine, fs *extfs.FS, file *extfs.File, bm *extalloc.Manager, cfg Config) {
	c.eng = eng
	c.fs = fs
	c.file = file
	c.bm = bm
	c.cfg = cfg
	c.nodes = make([]*Node, 1, 64) // index 0 is NilNode
	c.metaSlots = metaSlots(cfg.MetaPrefix)
	c.ckptW = sim.NewWorker(cfg.Name + "-checkpoint")
}

// Register enters a new node into the table under the next sequential
// id, which it stores in n.ID. The engine appends its own node to its
// parallel slice at the same moment.
func (c *Core) Register(n *Node) {
	n.ID = NodeID(len(c.nodes))
	c.nodes = append(c.nodes, n)
}

// Root returns the current root node id.
func (c *Core) Root() NodeID { return c.root }

// SetRoot makes id the root (a fresh tree's first leaf, or the node a
// root split grew).
func (c *Core) SetRoot(id NodeID) { c.root = id }

// IO returns the core's counters.
func (c *Core) IO() IOStats { return c.io }

// Err returns the sticky fatal error, if any.
func (c *Core) Err() error { return c.fatal }

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

// Worker exposes the checkpoint worker (tests submit jobs directly to
// provoke checkpoint/foreground races deterministically).
func (c *Core) Worker() *sim.Worker { return c.ckptW }

// ---- dirty tracking ----

// MarkDirty flags the node for the next checkpoint, logging the
// false->true transition once.
func (c *Core) MarkDirty(n *Node) {
	if n.Dirty {
		return // already tracked for the next checkpoint
	}
	n.Dirty = true
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
		if victim.Dirty {
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

// CheckCache audits the leaf cache: the LRU list is linked consistently
// both ways and ends at the tail, every listed node is a resident leaf,
// every resident node is listed, and the listed sizes sum to the
// resident byte count.
func (c *Core) CheckCache() error {
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
		c.bm.ReleaseDeferred(n.Disk)
	}
	ext, err := c.bm.Alloc(int64(pages))
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
	if n.Dirty {
		// The node's entry in the transition log stays behind; checkpoint
		// snapshots filter on the flag, so a stale id is skipped for free.
		n.Dirty = false
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

// ---- journal ----

// Journal returns the active journal segment writer, or nil when
// journaling is disabled.
func (c *Core) Journal() *wal.Writer { return c.journal }

// JournalSyncCount returns the number of device-reaching syncs issued on
// the active journal segment (see wal.Writer.SyncCount). The count does
// not carry across journal rotations; tests reading it bracket a window
// short enough that no checkpoint rotates the segment.
func (c *Core) JournalSyncCount() int64 {
	if c.journal == nil {
		return 0
	}
	return c.journal.SyncCount()
}

// SetJournalState seeds the journal id and metadata generation from
// recovered checkpoint metadata.
func (c *Core) SetJournalState(journalID, metaGen uint64) {
	c.journalID = journalID
	c.metaGen = metaGen
}

// journalName mints the next segment name.
func (c *Core) journalName() string {
	c.journalID++
	return fmt.Sprintf("%s%06d", c.cfg.JournalPrefix, c.journalID)
}

// StartJournal creates the initial journal segment (no-op when
// journaling is disabled).
func (c *Core) StartJournal() error {
	if c.cfg.DisableJournal {
		return nil
	}
	w, err := wal.Create(c.fs, c.journalName(), c.cfg.Content)
	if err != nil {
		return err
	}
	c.journal = w
	return nil
}

// BeginGroup opens a group commit: while it is active, engines skip
// their per-record journal syncs (they consult GroupActive at the
// append site) so a batch of writes from independent clients commits
// with one sync. The serving layer brackets multi-write intake batches
// with BeginGroup/EndGroup.
func (c *Core) BeginGroup() { c.group = true }

// GroupActive reports whether a group commit is open.
func (c *Core) GroupActive() bool { return c.group }

// EndGroup closes the group and, when sync is set, durably syncs the
// journal tail once, returning the sync completion time. Records whose
// segment was rotated away by an intervening checkpoint need no sync —
// the checkpoint superseded them.
func (c *Core) EndGroup(now sim.Duration, sync bool) (sim.Duration, error) {
	c.group = false
	if !sync || c.journal == nil {
		return now, nil
	}
	return c.journal.Sync(now)
}

// wrapJournal opens the next journal segment, reusing a recycled one
// when available.
func (c *Core) wrapJournal() (*wal.Writer, error) {
	if n := len(c.journalPool); n > 0 {
		w := c.journalPool[n-1]
		c.journalPool = c.journalPool[:n-1]
		return w, nil
	}
	return wal.Create(c.fs, c.journalName(), c.cfg.Content)
}

// poolTracks reports whether a recycled segment with the given name is
// waiting in the pool.
func (c *Core) poolTracks(name string) bool {
	for _, w := range c.journalPool {
		if w.Name() == name {
			return true
		}
	}
	return false
}

// ---- checkpoint scheduling ----

// MaybeCheckpoint starts a checkpoint when the interval elapsed — or the
// deferred-release backlog has grown too large — and none is running.
func (c *Core) MaybeCheckpoint(now sim.Duration) {
	if c.ckptW.QueueLen() > 0 {
		return
	}
	intervalDue := now-c.lastCkpt >= c.cfg.CheckpointInterval
	pendingDue := c.bm.PendingPages()*int64(c.fs.PageSize()) >= c.cfg.CheckpointPendingBytes
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
