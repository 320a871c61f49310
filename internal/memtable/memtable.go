// Package memtable implements the in-memory write buffer of the LSM
// engine as a skiplist keyed by user key. It tracks its approximate byte
// footprint so the engine can rotate memtables at the configured size,
// which is what paces flushes — and therefore the whole write path — in
// the simulation.
//
// A memtable carves its nodes, towers and key/value bytes from
// fixed-size arena chunks taken from a Chunks free list; Release gives
// them back once the memtable has been flushed, so the next memtable
// reuses them instead of allocating its own.
package memtable

import (
	"bytes"

	"ptsbench/internal/arena"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

const maxHeight = 16

// Arena chunk sizes. Chunks are fixed-size and never reallocated, so
// pointers into them stay valid for the memtable's lifetime; only a
// value longer than byteChunk gets an allocation of its own, which is
// never recycled.
const (
	nodeChunk = 256      // nodes per chunk
	ptrChunk  = 1024     // tower pointers per chunk
	byteChunk = 16 << 10 // key/value bytes per chunk
)

// Chunks holds the free lists of arena chunks, one per kind. A DB keeps
// one for all its memtables: Release returns a flushed memtable's
// chunks, New's memtables carve from them. Each list keeps at most 256
// chunks — 6 MiB of node chunks, 2 MiB of tower-pointer chunks and
// 4 MiB of byte chunks, more than one memtable of the benchmark's LSM
// cells carves (26, 9 and 7 chunks at lsm-write); a larger memtable
// recycles that many and leaves the rest to the garbage collector. It
// is not safe for concurrent use.
type Chunks struct {
	nodes arena.Chunks[node]
	ptrs  arena.Chunks[*node]
	bytes arena.Chunks[byte]
	// memtables holds released Memtable structs: a flushed memtable's
	// becomes a later New's.
	memtables arena.Spare[Memtable]
}

// node is one skiplist entry. The tower is a variable-height slice carved
// from the memtable's pointer arena: the average tower height is 4/3
// levels (p = 1/4), so towers cost ~11 bytes per entry instead of the
// 128 bytes a fixed [16]*node would.
type node struct {
	entry kv.Entry
	tower []*node
}

// Memtable is a single-writer skiplist. It applies upsert semantics: a
// second Put of the same key replaces the previous version in place
// (sequence numbers still advance). With the paper's uniform-random
// workload over a large keyspace, in-memtable overwrites are rare, so
// this matches RocksDB's effective behaviour while keeping byte
// accounting simple.
//
// All node, tower and key/value storage comes from arena chunks, so the
// steady-state Put path performs no heap allocation beyond taking a
// chunk when the current one is full — and none at all once its DB's
// Chunks list holds a flushed memtable's chunks.
type Memtable struct {
	head   *node
	height int
	rng    sim.RNG

	// last is the node the last Put linked in or replaced, and splice
	// holds its predecessors at the levels above its tower. A key that
	// sorts between last and last's successor has last as its
	// predecessor at every level of last's tower and splice's nodes
	// above it, so Put takes that splice instead of walking from the
	// head: every Put of an ascending load does (RocksDB's skiplist
	// keeps the same fast path for sequential inserts).
	last   *node
	splice [maxHeight]*node

	entries  int
	sizeEst  int64 // approximate payload bytes (keys + values + overhead)
	overhead int64 // per-entry bookkeeping estimate

	// The arenas nodes, towers and key/value bytes are carved from, each
	// drawing on its kind's free list in free, which takes the struct
	// back at Release.
	free  *Chunks
	nodes arena.Arena[node]
	ptrs  arena.Arena[*node]
	bytes arena.Arena[byte]
}

// New creates an empty memtable; the generator that draws skiplist
// tower heights starts on sim.NewRNG(seed)'s stream, and free supplies
// the arena chunks and, when it holds one, a released Memtable struct
// with its emptied arenas and its generator, which is reseeded.
func New(seed uint64, free *Chunks) *Memtable {
	m := free.memtables.Get()
	if m.free == nil { // a new struct: bind its arenas to free
		m.free = free
		m.nodes = arena.Arena[node]{Chunk: nodeChunk, Free: &free.nodes}
		m.ptrs = arena.Arena[*node]{Chunk: ptrChunk, Free: &free.ptrs}
		m.bytes = arena.Arena[byte]{Chunk: byteChunk, Free: &free.bytes}
	}
	m.height, m.overhead = 1, 32
	m.rng.Reseed(seed)
	m.head = m.newNode(maxHeight)
	return m
}

// Release returns the memtable's chunks, and its struct with its
// emptied arenas, to its free lists. The memtable and every entry, key
// and value read from it must not be used again.
func (m *Memtable) Release() {
	m.nodes.Release()
	m.ptrs.Release()
	m.bytes.Release()
	*m = Memtable{free: m.free, nodes: m.nodes, ptrs: m.ptrs, bytes: m.bytes}
	m.free.memtables.Put(m)
}

// newNode carves a node with a tower of the given height from the arenas.
func (m *Memtable) newNode(height int) *node {
	n := m.nodes.New()
	n.tower = m.ptrs.Alloc(height)
	return n
}

// Len returns the number of live entries.
func (m *Memtable) Len() int { return m.entries }

// SizeBytes returns the approximate memory footprint used for rotation
// decisions.
func (m *Memtable) SizeBytes() int64 { return m.sizeEst }

func (m *Memtable) randomHeight() int {
	h := 1
	for h < maxHeight && m.rng.Uint64()&3 == 0 { // p = 1/4
		h++
	}
	return h
}

// findGreaterOrEqual returns the first node with key >= key, recording
// the rightmost node before it at every level in prev. The target key is
// decomposed into comparison words once, so each probe along the walk is
// two word compares instead of a generic byte comparison.
func (m *Memtable) findGreaterOrEqual(key []byte, prev *[maxHeight]*node) *node {
	hi, lo := kv.DecomposeKey(key)
	x := m.head
	for level := m.height - 1; level >= 0; level-- {
		for {
			next := x.tower[level]
			if next == nil || kv.CompareKeyWords(next.entry.Key, hi, lo) >= 0 {
				break
			}
			x = next
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return x.tower[0]
}

// follows reports whether key sorts after the last Put's node and
// before that node's successor, so the node's splice is key's.
func (m *Memtable) follows(key []byte) bool {
	if m.last == nil || kv.CompareKeys(m.last.entry.Key, key) >= 0 {
		return false
	}
	next := m.last.tower[0]
	return next == nil || kv.CompareKeys(key, next.entry.Key) < 0
}

// Put inserts or replaces the entry for key, a kv.KeySize key (the DB
// refuses any other before it gets here). valueLen is the accounted
// payload size when value is nil.
func (m *Memtable) Put(key, value []byte, valueLen int, seq uint64, deleted bool) {
	if value != nil {
		valueLen = len(value)
	}
	prev := &m.splice
	if m.follows(key) {
		for level := range m.last.tower {
			prev[level] = m.last
		}
	} else if existing := m.findGreaterOrEqual(key, prev); existing != nil && bytes.Equal(existing.entry.Key, key) {
		// The walk left existing's predecessors in splice.
		m.last = existing
		old := int64(len(existing.entry.Key)) + int64(existing.entry.ValueLen) + m.overhead
		existing.entry.Value = m.bytes.Clone(value)
		existing.entry.ValueLen = valueLen
		existing.entry.Seq = seq
		existing.entry.Deleted = deleted
		m.sizeEst += int64(len(key)) + int64(valueLen) + m.overhead - old
		return
	}
	h := m.randomHeight()
	if h > m.height {
		for level := m.height; level < h; level++ {
			prev[level] = m.head
		}
		m.height = h
	}
	n := m.newNode(h)
	n.entry = kv.Entry{
		Key:      m.bytes.Clone(key),
		Value:    m.bytes.Clone(value),
		ValueLen: valueLen,
		Seq:      seq,
		Deleted:  deleted,
	}
	for level := 0; level < h; level++ {
		n.tower[level] = prev[level].tower[level]
		prev[level].tower[level] = n
	}
	m.last = n
	m.entries++
	m.sizeEst += int64(len(key)) + int64(valueLen) + m.overhead
}

// Get returns the entry for key, or nil.
func (m *Memtable) Get(key []byte) *kv.Entry {
	n := m.findGreaterOrEqual(key, nil)
	if n != nil && bytes.Equal(n.entry.Key, key) {
		return &n.entry
	}
	return nil
}

// Iterator returns a kv.Iterator over all entries in ascending key order.
func (m *Memtable) Iterator() kv.Iterator {
	return &iterator{next: m.head.tower[0]}
}

// IteratorFrom returns a kv.Iterator positioned before the first entry
// with key >= start.
func (m *Memtable) IteratorFrom(start []byte) kv.Iterator {
	return &iterator{next: m.findGreaterOrEqual(start, nil)}
}

type iterator struct {
	next *node
	cur  *node
}

func (it *iterator) Next() bool {
	if it.next == nil {
		it.cur = nil
		return false
	}
	it.cur = it.next
	it.next = it.next.tower[0]
	return true
}

func (it *iterator) Entry() *kv.Entry { return &it.cur.entry }
