package btree

import (
	"slices"

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

// pageHeaderBytes is the serialized page header size.
const pageHeaderBytes = 64

// page is an in-memory B+Tree page: the shared node header (identity,
// tree position, child ids, dirty flag, on-disk extent, cache residency
// — see cowtree.Node) plus the payload. Leaves carry entries; internal
// pages carry separator keys beside the header's Children. Serialized is
// tracked incrementally so splits trigger at the configured page size
// without serializing on every update.
type page struct {
	cowtree.Node

	// Leaf payload, sorted by key (see cowtree.Record). A single record
	// slice keeps an insert to one shift and a split to one allocation.
	entries []cowtree.Record

	// Internal payload: Children[i] holds keys < seps[i] for
	// i < len(seps); Children[len(seps)] holds the rest.
	seps [][]byte

	// sepCache holds the separators' word decomposition so descents
	// probe raw uint64 pairs (see kv.SepCache); maintained by
	// refreshSepCache/insertSepCache after any seps mutation.
	sepCache kv.SepCache

	// childExtents is only populated on pages reconstructed from disk
	// (recovery): the on-disk locations of the children, in child order.
	childExtents []fileExtent
}

// mem bundles the tree's allocation helpers handed to page methods: the
// arena backs what stored records keep (see cowtree.RecordArena) and
// the separator copies, the pool recycles leaf record arrays displaced
// by growth and splits.
type mem struct {
	arena   cowtree.RecordArena
	entries cowtree.Pool[cowtree.Record]
}

// refreshSepCache rebuilds the separator word cache. Callers invoke it
// after every seps mutation.
func (p *page) refreshSepCache() { p.sepCache.Refresh(p.seps) }

// childFor returns the child page covering t in an internal page.
func (p *page) childFor(t kv.Target) pageID { return p.Children[p.sepCache.UpperBound(p.seps, t)] }

// childIndex returns the position of child id in an internal page.
func (p *page) childIndex(id pageID) int {
	for i, c := range p.Children {
		if c == id {
			return i
		}
	}
	return -1
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
	right.Serialized = pageHeaderBytes + movedBytes
	p.entries = m.entries.Fit(p.entries[:mid])
	p.Serialized -= movedBytes
	// Maintain the leaf chain.
	right.Next = p.Next
	p.Next = right.ID
	var kb [kv.KeySize]byte
	return m.arena.Clone(right.entries[0].Key(&kb))
}

// childRefBytes is the serialized size of one child reference in an
// internal page: extent start (8) + extent pages (4), so recovery can
// locate children on disk.
const childRefBytes = 12

// insertChild adds a separator and child after position idx in an
// internal page. The page keeps sep itself: a split hands over bytes
// the tree owns.
func (p *page) insertChild(idx int, sep []byte, child pageID) {
	p.seps = slices.Insert(p.seps, idx, sep)
	p.Children = slices.Insert(p.Children, idx+1, child)
	p.Serialized += 2 + len(sep) + childRefBytes
	p.insertSepCache(idx, p.seps[idx])
}

// insertSepCache splices one separator's decomposed words into the word
// cache.
func (p *page) insertSepCache(idx int, sep []byte) { p.sepCache.Insert(idx, sep) }

// splitInternal moves the upper half of an internal page into right (a
// fresh, registered page), returning the separator promoted to the
// parent.
func (p *page) splitInternal(right *page) []byte {
	mid := len(p.seps) / 2
	promoted := p.seps[mid]
	right.Parent = p.Parent
	right.seps = append([][]byte(nil), p.seps[mid+1:]...)
	right.Children = append([]pageID(nil), p.Children[mid+1:]...)
	right.recomputeSerialized()
	right.refreshSepCache()
	p.seps = p.seps[:mid]
	p.Children = p.Children[:mid+1]
	p.recomputeSerialized()
	p.refreshSepCache()
	return promoted
}

// recomputeSerialized recalculates the internal page footprint.
func (p *page) recomputeSerialized() {
	s := pageHeaderBytes + childRefBytes*len(p.Children)
	for _, sep := range p.seps {
		s += 2 + len(sep)
	}
	p.Serialized = s
}
