package btree

import (
	"ptsbench/internal/cowtree"
	"ptsbench/internal/kv"
)

// fileExtent aliases the shared extent type.
type fileExtent = cowtree.Extent

// pageID identifies an in-memory page. IDs are never reused. It aliases
// the shared core's node id so pages plug into internal/cowtree without
// conversions.
type pageID = cowtree.NodeID

const nilPage = cowtree.NilNode

// page is an in-memory B+Tree page: the shared node header (identity,
// tree position, pivots, dirty flag, on-disk extent, cache residency —
// see cowtree.Node) plus the leaf payload. Internal pages carry only the
// header's Pivots. Serialized is tracked incrementally so splits trigger
// at the configured page size without serializing on every update.
type page struct {
	cowtree.Node

	// Leaf payload, sorted by key (see cowtree.Record). A single record
	// slice keeps an insert to one shift and a split to one allocation.
	entries []cowtree.Record
}

// mem bundles the tree's allocation helpers handed to page methods: the
// arena backs what stored records keep (see cowtree.RecordArena) and
// the separator copies, the pool recycles leaf record arrays displaced
// by growth and splits.
type mem struct {
	arena   cowtree.RecordArena
	entries cowtree.Pool[cowtree.Record]
}

// insertLeaf upserts an unowned record — key and val, the caller's
// reused buffers, travel beside it (see cowtree.InsertRecord) — into the
// leaf, returning the serialized size delta. An accounting-mode put of a
// kv.KeySize key takes nothing from the arena.
func (p *page) insertLeaf(m *mem, r cowtree.Record, key, val []byte) int {
	var delta int
	p.entries, delta = cowtree.InsertRecord(&m.entries, &m.arena, p.entries, r, kv.NewTarget(key), val)
	p.Serialized += delta
	return delta
}

// splitLeaf moves the upper half of the entries into right (a fresh,
// registered page) and returns the separator key (first key of the new
// page) in bytes of its own from the arena. Both halves end up in
// pooled arrays of the capacity class their length calls for (next
// power of two), which leaves room to refill toward the page's own
// split without regrowing: the moved half draws one, and the half that
// stays is re-homed when the array it was cut from is a class larger (a
// 9-entry leaf in 16 slots would otherwise split into 4 entries still
// holding 16), the big array going back to the pool.
func (p *page) splitLeaf(m *mem, right *page) []byte {
	mid := len(p.entries) / 2
	right.Parent = p.Parent
	right.Leaf = true
	right.entries = m.entries.CloneTail(p.entries, mid)
	var movedBytes int
	for i := mid; i < len(p.entries); i++ {
		movedBytes += p.entries[i].Size()
	}
	right.Serialized = cowtree.PageHeaderBytes + movedBytes
	p.entries = m.entries.Fit(p.entries[:mid])
	p.Serialized -= movedBytes
	// Maintain the leaf chain.
	right.Next = p.Next
	p.Next = right.ID
	var kb [kv.KeySize]byte
	return m.arena.Clone(right.entries[0].Key(&kb))
}
