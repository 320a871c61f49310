package cowtree

import (
	"errors"
	"fmt"
	"time"

	"ptsbench/internal/engine"
	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
	"ptsbench/internal/wal"
)

// The tree shell: everything about a copy-on-write tree engine that is
// not its node payload — the shared configuration, opening and
// recovering, the kv.Engine lifecycle and the bracket around every
// operation. An engine embeds Core in its tree, so the methods here are
// its kv.Engine methods too.

// ErrClosed is returned by every operation after Close.
var ErrClosed = errors.New("cowtree: tree is closed")

// Naming is an engine's on-device footprint: the names and magic of
// what it writes. Each engine keeps its own as a package constant, so
// the images its earlier versions wrote stay readable.
type Naming struct {
	// Name tags errors and the checkpoint worker ("btree", "betree").
	Name string
	// File is the collection file holding the node images.
	File string
	// MetaPrefix names the double-buffered metadata files
	// ("<prefix>-A"/"<prefix>-B").
	MetaPrefix string
	// MetaMagic is the 32-bit magic of the metadata codec.
	MetaMagic uint32
	// JournalPrefix prefixes journal segment file names; segments are
	// "<prefix>NNNNNN".
	JournalPrefix string
	// Buffered says the engine's interiors carry message buffers (the
	// Bε-tree's), which their images hold after the pivot section;
	// Check asserts that every interior has them, or none does.
	Buffered bool
}

// Tuning is the configuration both tree engines share; each engine's
// Config embeds it beside the knobs that shape its interior nodes.
type Tuning struct {
	// LeafPageBytes is the maximum serialized leaf size (WiredTiger's
	// leaf_page_max).
	LeafPageBytes int
	// CacheBytes bounds the serialized bytes of resident leaves.
	// Interior nodes are pinned — the classic assumption that the upper
	// tree fits in RAM — and the paper configures a deliberately small
	// 10 MiB cache so the dataset cannot fit.
	CacheBytes int64
	// CheckpointInterval triggers a checkpoint when this much virtual
	// time has passed since the last one (WiredTiger defaults to 60s).
	CheckpointInterval time.Duration
	// CheckpointPendingBytes triggers a checkpoint when this many bytes
	// of freed extents await release (they only return to the allocator
	// at checkpoint commit).
	CheckpointPendingBytes int64
	// JournalSync syncs the journal on every update.
	JournalSync bool
	// DisableJournal turns journaling off entirely (ablations).
	DisableJournal bool

	// CPUPutTime / CPUGetTime model per-operation engine CPU and
	// synchronization overhead; CPUPerByte adds the payload-dependent
	// part. The paper observes WiredTiger is less device-bound than
	// RocksDB because of these costs (§4.1).
	CPUPutTime time.Duration
	CPUGetTime time.Duration
	CPUPerByte time.Duration

	// ChunkPages is the checkpoint I/O granularity per job step.
	ChunkPages int

	// Content selects content mode (values materialized and written
	// through; required for recovery).
	Content bool
}

// NewTuning returns the shared defaults for a dataset of roughly
// datasetBytes, with the engine's per-operation CPU costs. The cache
// scales with the dataset the way the paper's 10 MiB cache relates to
// its 200 GiB dataset (deliberately tiny), with a floor of a few leaves.
func NewTuning(datasetBytes int64, cpuPut, cpuGet time.Duration) Tuning {
	cache := datasetBytes / 20000
	if cache < 256<<10 {
		cache = 256 << 10
	}
	pending := datasetBytes / 16
	if pending < 512<<10 {
		pending = 512 << 10
	}
	return Tuning{
		// 48 KiB models WiredTiger's effective reconciliation unit: the
		// in-memory page grows past leaf_page_max before it is split and
		// written out, so the average write-out is larger than the
		// nominal 32 KiB leaf.
		LeafPageBytes:          48 << 10,
		CacheBytes:             cache,
		CheckpointInterval:     60 * time.Second,
		CheckpointPendingBytes: pending,
		JournalSync:            true,
		CPUPutTime:             cpuPut,
		CPUGetTime:             cpuGet,
		CPUPerByte:             65 * time.Nanosecond,
		ChunkPages:             32,
	}
}

// Validate fills defaults and rejects nonsense; name tags the error.
func (t Tuning) Validate(name string) (Tuning, error) {
	if t.LeafPageBytes <= 0 {
		return t, fmt.Errorf("%s: LeafPageBytes must be positive", name)
	}
	if t.CacheBytes <= int64(2*t.LeafPageBytes) {
		t.CacheBytes = int64(8 * t.LeafPageBytes)
	}
	if t.CheckpointInterval <= 0 {
		t.CheckpointInterval = 60 * time.Second
	}
	if t.CheckpointPendingBytes <= 0 {
		t.CheckpointPendingBytes = 8 << 20
	}
	if t.ChunkPages <= 0 {
		t.ChunkPages = 32
	}
	return t, nil
}

// ScaleCPU dilates the CPU costs by the simulation scale (see
// engine.Sizing.CPUScale): the sizing rule both tree drivers apply to
// their dataset-sized defaults.
func (t *Tuning) ScaleCPU(s engine.Sizing) {
	f := s.CPUScale()
	t.CPUPutTime *= f
	t.CPUGetTime *= f
	t.CPUPerByte *= f
}

// tuning lets WithEnv reach the Tuning an engine's configuration embeds.
func (t *Tuning) tuning() *Tuning { return t }

// WithEnv returns a copy of an engine's configuration — a struct
// embedding Tuning — in env's content mode: the configuration both tree
// drivers open and recover their engine with.
func WithEnv[C any, P interface {
	*C
	tuning() *Tuning
}](c P, env engine.Env) C {
	cfg := *c
	P(&cfg).tuning().Content = env.Content
	return cfg
}

// Bind binds the declarative names of the cache, checkpoint, journal and
// CPU knobs to t's fields. leaf_page_bytes is left to the engine, which
// lists it among the knobs that size its nodes.
func (t *Tuning) Bind(k *engine.Knobs) {
	k.Int64("cache_bytes", "leaf cache bound (bytes)", &t.CacheBytes)
	k.Duration("checkpoint_interval", "virtual time between checkpoints", &t.CheckpointInterval)
	k.Int64("checkpoint_pending_bytes", "freed bytes awaiting release that force a checkpoint", &t.CheckpointPendingBytes)
	k.Bool("journal_sync", "sync the journal on every update", &t.JournalSync)
	k.Bool("disable_journal", "turn journaling off entirely", &t.DisableJournal)
	k.Duration("cpu_put_time", "per-put engine CPU cost", &t.CPUPutTime)
	k.Duration("cpu_get_time", "per-get engine CPU cost", &t.CPUGetTime)
	k.Duration("cpu_per_byte", "payload-size-dependent CPU cost per byte", &t.CPUPerByte)
	k.Int("chunk_pages", "checkpoint I/O granularity (pages per job step)", &t.ChunkPages)
}

// Tree is an engine's tree as Open and Recover see it: the node codec,
// the two recovery hooks, a constructor for the empty root leaf of a
// fresh tree, and the Core — which the tree provides by embedding it.
// The core drives the tree walk, free-list reconstruction, leaf-chain
// rebuild and sequence-ordered replay, and owns the node table, the leaf
// payload, the Bε-tree's buffers and the shared node image
// (Node.AppendImage, Node.ParseImage, Node.ParseBuffers); the engine
// adds its magic to the codec and applies replayed journal records (its
// insert path).
type Tree interface {
	Engine
	// MaterializeNode parses one on-disk image into a Node
	// (Node.ParseImage under the engine's magic, and Node.ParseBuffers
	// for a Bε-tree interior) and registers it (Core.Register). It
	// returns the Node — Leaf, Serialized, a leaf's Entries and, for an
	// interior node, its Interior part with Children sized to the fanout
	// set and any Buf; the
	// core fills in Parent, Disk and the child ids and notes the
	// sequence numbers of the entries and buffered messages — and the
	// on-disk extents of the children in child order (nil for leaves). An
	// engine with a payload of its own reports the sequence numbers it
	// holds to Core.NoteSeq.
	MaterializeNode(data []byte) (*Node, []Extent, error)
	// ApplyRecovered replays one journal record through the engine's
	// insert path (without journaling, CPU costs or eviction),
	// sequence-guarded so stale records never overwrite newer on-disk
	// state. The core has already raised the sequence high-water mark
	// to the record's.
	ApplyRecovered(now sim.Duration, r *wal.Record) (sim.Duration, error)
	// NewRootLeaf installs the empty, resident root leaf of a fresh
	// tree (Core.SetRoot plus Core.Admit).
	NewRootLeaf()
	shell() *Core
}

func (c *Core) shell() *Core { return c }

// Open attaches a freshly built engine tree t, with no nodes yet, to a
// new collection file: its core, its empty root leaf and its first
// journal segment.
func Open[T Tree](fs *extfs.FS, n Naming, tune Tuning, t T) (T, error) {
	var none T
	f, err := fs.Create(n.File)
	if err != nil {
		return none, err
	}
	c := t.shell()
	c.setup(t, fs, f, n, tune)
	t.NewRootLeaf()
	if err := c.journal.Start(); err != nil {
		return none, err
	}
	return t, nil
}

// Recover reopens the engine tree t, freshly built with no nodes yet,
// from its on-device state: the newest checkpoint metadata locates the
// root, the tree is parsed top-down, and surviving journal records are
// replayed on top (sequence-guarded, so a replay never regresses a
// newer on-disk value). It requires content mode. The returned time
// includes all recovery I/O.
func Recover[T Tree](fs *extfs.FS, n Naming, tune Tuning, now sim.Duration, t T) (T, sim.Duration, error) {
	var none T
	if !tune.Content {
		return none, now, fmt.Errorf("%s: Recover requires content mode", n.Name)
	}
	st, now, err := ReadMeta(fs, n, now)
	if err != nil {
		return none, now, err
	}
	f, err := fs.Open(n.File)
	switch {
	case err == nil:
	case st != nil:
		return none, now, fmt.Errorf("%s: collection file missing: %w", n.Name, err)
	default:
		if f, err = fs.Create(n.File); err != nil {
			return none, now, err
		}
	}
	c := t.shell()
	c.setup(t, fs, f, n, tune)
	var journalID uint64
	if st == nil {
		// The tree died before its first checkpoint committed: both
		// metadata slots are empty or torn, so nothing inside the
		// collection file is live and the synced journal is the only
		// durable state. Alternating slot writes mean a tree with a
		// committed checkpoint can never lose both slots to one torn
		// write, so there is no older checkpoint to roll back to:
		// install an empty root, mark the whole file free and replay
		// the journal onto it.
		t.NewRootLeaf()
		c.rebuildFreeList(nil)
	} else {
		journalID, c.metaGen = st.JournalID, st.Gen
		// Rebuild the tree from the root (extents seen during the walk
		// are live; everything else inside the file is free space).
		if now, err = c.recoverTree(now, st.Root, t); err != nil {
			return none, now, err
		}
	}
	// Replay the surviving journal segments, newest records winning.
	// The sequence counter is recomputed from what is actually on disk
	// (MaterializeNode reports every sequence it parses, replay advances
	// it per record) rather than trusted from the metadata, so it can be
	// checked against the checkpoint floor below.
	if now, err = c.replayJournal(now, t, journalID); err != nil {
		return none, now, err
	}
	// The metadata's floor promises every update with seq <= st.Seq is
	// in the checkpointed tree image — as a leaf entry or, in a
	// Bε-tree, a message still buffered in an interior node (tombstones
	// included: deletes keep their entry until overwritten). Recovering
	// less means node writes the device acknowledged before the
	// checkpoint barrier never persisted: the device lied about fsync.
	// Refuse loudly rather than silently serving the stale tree.
	if st != nil && c.seq < st.Seq {
		return none, now, fmt.Errorf(
			"%s: recovered sequence %d below checkpoint floor %d: device dropped acknowledged writes (fsync lie)",
			n.Name, c.seq, st.Seq)
	}
	if now, err = c.finishRecovery(now); err != nil {
		return none, now, err
	}
	return t, now, nil
}

// NoteSeq raises the sequence high-water mark to seq; recovery calls it
// for every leaf entry and buffered message MaterializeNode returns, and
// an engine for every other sequence it parses.
func (c *Core) NoteSeq(seq uint64) {
	if seq > c.seq {
		c.seq = seq
	}
}

// ---- the operation bracket ----

// BeginWrite opens a Put or Delete of key: it refuses a closed or
// failed tree and a key that is not kv.KeySize bytes, takes the value
// length from value when there is one, drives the checkpoint worker up
// to now, charges the write's CPU cost and issues the next sequence
// number. It returns the advanced clock, the write's sequence number
// and its value length.
func (c *Core) BeginWrite(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, uint64, int, error) {
	if err := c.begin(key); err != nil {
		return now, 0, 0, err
	}
	if value != nil {
		valueLen = len(value)
	}
	c.Pump(now)
	now += c.cfg.CPUPutTime + time.Duration(valueLen)*c.cfg.CPUPerByte
	c.seq++
	return now, c.seq, valueLen, nil
}

// AppendJournal journals one write (nothing when journaling is off),
// syncing it unless JournalSync is off or a group commit is open. A
// journal error is fatal to the tree.
func (c *Core) AppendJournal(now sim.Duration, seq uint64, key, value []byte, valueLen int, del bool) (sim.Duration, error) {
	w := c.journal.Writer
	if w == nil {
		return now, nil
	}
	rec := wal.Record{Seq: seq, Key: key, Value: value, Deleted: del, ValueLen: valueLen}
	now, err := w.Append(now, &rec, c.cfg.JournalSync && !c.group)
	if err != nil {
		c.Fail(err)
	}
	return now, err
}

// EndWrite closes a write the engine has applied: it counts it, evicts
// down to the cache bound and starts a checkpoint when one is due.
func (c *Core) EndWrite(now sim.Duration, keyLen, valueLen int) (sim.Duration, error) {
	c.stats.Puts++
	c.stats.UserBytesWritten += int64(keyLen + valueLen)
	now, err := c.EvictToFit(now)
	if err != nil {
		return now, err
	}
	c.MaybeCheckpoint(now)
	return now, nil
}

// begin refuses an operation on key when the tree is closed or failed
// or key is not kv.KeySize bytes.
func (c *Core) begin(key []byte) error {
	if c.closed {
		return ErrClosed
	}
	if c.fatal != nil {
		return c.fatal
	}
	return kv.CheckKey(key)
}

// BeginRead opens a Scan from start: it refuses a closed or failed tree
// and a start that is not kv.KeySize bytes, drives the checkpoint
// worker up to now and charges the read's CPU cost.
func (c *Core) BeginRead(now sim.Duration, start []byte) (sim.Duration, error) {
	if err := c.begin(start); err != nil {
		return now, err
	}
	c.Pump(now)
	return now + c.cfg.CPUGetTime, nil
}

// BeginGet opens a Get of key: BeginRead, counted.
func (c *Core) BeginGet(now sim.Duration, key []byte) (sim.Duration, error) {
	now, err := c.BeginRead(now, key)
	if err == nil {
		c.stats.Gets++
	}
	return now, err
}

// LoadForGet makes the leaf a Get reads resident and evicts down to the
// cache bound. A failed read is fatal to the tree.
func (c *Core) LoadForGet(now sim.Duration, n *Node) (sim.Duration, error) {
	now, err := c.Load(now, n)
	if err != nil {
		c.Fail(err)
		return now, err
	}
	return c.EvictToFit(now)
}

// CountRead adds the bytes of one returned entry to the read statistics.
func (c *Core) CountRead(bytes int) { c.stats.UserBytesRead += int64(bytes) }

// ---- kv.Engine lifecycle ----

// Stats implements kv.Engine.
func (c *Core) Stats() kv.EngineStats { return c.stats }

// DiskUsageBytes implements kv.Engine.
func (c *Core) DiskUsageBytes() int64 { return c.fs.UsedBytes() }

// FlushAll implements kv.Engine: runs a full checkpoint synchronously.
func (c *Core) FlushAll(now sim.Duration) (sim.Duration, error) {
	if c.closed {
		return now, ErrClosed
	}
	return c.Checkpoint(now)
}

// Close checkpoints and shuts the tree down.
func (c *Core) Close(now sim.Duration) (sim.Duration, error) {
	if c.closed {
		return now, ErrClosed
	}
	end, err := c.FlushAll(now)
	c.closed = true
	return end, err
}

// BeginGroupCommit implements engine.GroupCommitter: while the group is
// open, writes skip their per-record journal syncs, so a batch of writes
// from independent clients commits with one sync.
func (c *Core) BeginGroupCommit() { c.group = true }

// EndGroupCommit closes the group and, when JournalSync is set, syncs
// the journal tail once, returning the sync's completion time. No
// checkpoint starts inside a group, so that one sync covers every record
// the group appended; a checkpoint that fell due meanwhile starts after
// it. A sync error is fatal to the tree.
func (c *Core) EndGroupCommit(now sim.Duration) (sim.Duration, error) {
	c.group = false
	if w := c.journal.Writer; c.cfg.JournalSync && w != nil {
		var err error
		if now, err = w.Sync(now); err != nil {
			c.Fail(err)
			return now, err
		}
	}
	c.MaybeCheckpoint(now)
	return now, nil
}

// JournalSyncCount returns the number of device-reaching syncs issued on
// the active journal segment (see wal.Writer.SyncCount). The count does
// not carry across journal rotations; tests reading it bracket a window
// short enough that no checkpoint rotates the segment.
func (c *Core) JournalSyncCount() int64 {
	w := c.journal.Writer
	if w == nil {
		return 0
	}
	return w.SyncCount()
}

// Depth returns the tree height (1 = root leaf only).
func (c *Core) Depth() int {
	d := 1
	for n := c.nodes[c.root]; !n.Leaf; n = c.nodes[n.Children[0]] {
		d++
	}
	return d
}

// NodeCount returns the numbers of leaf and interior nodes.
func (c *Core) NodeCount() (leaves, interiors int) {
	for _, n := range c.nodes[1:] {
		if n.Leaf {
			leaves++
		} else {
			interiors++
		}
	}
	return leaves, interiors
}
