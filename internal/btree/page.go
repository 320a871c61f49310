package btree

import (
	"bytes"

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

// entryOverhead is the serialized per-entry header in a leaf:
// keyLen(2) + valueLen(4) + seq(8).
const entryOverhead = 14

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

	// Leaf payload, sorted by key. entry.val may be nil in accounting
	// mode with entry.vlen carrying the accounted size. A single entry
	// slice (instead of five parallel column slices) keeps an insert to
	// one shift and a split to one allocation.
	entries []leafEntry

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
// arena backs retained key/value copies, the pool recycles leaf entry
// arrays displaced by growth and splits.
type mem struct {
	arena   cowtree.Arena
	entries cowtree.Pool[leafEntry]
}

// leafEntry is one key-value record inside a leaf page.
type leafEntry struct {
	key  []byte
	val  []byte
	seq  uint64
	vlen int32
	del  bool
}

// makeEntry builds a leafEntry value (one construction point keeps the
// field order in one place).
func makeEntry(key, val []byte, seq uint64, vlen int, del bool) leafEntry {
	return leafEntry{key: key, val: val, seq: seq, vlen: int32(vlen), del: del}
}

// bytes returns the entry's serialized footprint.
func (e *leafEntry) bytes() int {
	return entryOverhead + len(e.key) + int(e.vlen)
}

// search returns the index of the first key >= target in a leaf. Open-
// coded binary search: the closure-based sort.Search showed up in every
// descend/insert profile.
func (p *page) search(target []byte) int {
	wHi, wLo, fast := kv.DecomposeKey(target)
	lo, hi := 0, len(p.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var c int
		if mk := p.entries[mid].key; fast && len(mk) == kv.KeySize {
			c = kv.CompareKeyWords(mk, wHi, wLo)
		} else {
			c = kv.CompareKeys(mk, target)
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
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

// insertLeaf inserts or replaces an entry, returning the serialized size
// delta. When val is non-nil it overrides vlen, keeping the stored bytes
// and the accounted size consistent. Retained key/value copies come from
// the tree's arena and array growth recycles through the entry pool, so
// the steady-state path costs no heap allocation.
func (p *page) insertLeaf(m *mem, key, val []byte, vlen int, seq uint64, del bool) int {
	if val != nil {
		vlen = len(val)
	}
	i := p.search(key)
	if i < len(p.entries) && bytes.Equal(p.entries[i].key, key) {
		e := &p.entries[i]
		old := e.bytes()
		e.val = m.arena.Clone(val)
		e.vlen = int32(vlen)
		e.seq = seq
		e.del = del
		delta := entryOverhead + len(key) + vlen - old
		p.Serialized += delta
		return delta
	}
	p.entries = m.entries.GrowInsert(p.entries, i,
		makeEntry(m.arena.Clone(key), m.arena.Clone(val), seq, vlen, del))
	delta := entryOverhead + len(key) + vlen
	p.Serialized += delta
	return delta
}

// splitLeaf moves the upper half of the entries into right (a fresh,
// registered page) and returns the separator key (first key of the new
// page). Both halves end up in pooled arrays of the capacity
// class their length calls for (next power of two), which leaves room
// to refill toward the page's own split without regrowing: the moved
// half draws one, and the half that stays is re-homed when the array it
// was cut from is a class larger (a 9-entry leaf in 16 slots would
// otherwise split into 4 entries still holding 16), the big array going
// back to the pool.
func (p *page) splitLeaf(m *mem, right *page) []byte {
	mid := len(p.entries) / 2
	right.Parent = p.Parent
	right.Leaf = true
	right.entries = m.entries.CloneTail(p.entries, mid)
	var movedBytes int
	for i := mid; i < len(p.entries); i++ {
		movedBytes += p.entries[i].bytes()
	}
	right.Serialized = pageHeaderBytes + movedBytes
	p.entries = m.entries.Fit(p.entries[:mid])
	p.Serialized -= movedBytes
	// Maintain the leaf chain.
	right.Next = p.Next
	p.Next = right.ID
	return right.entries[0].key
}

// childRefBytes is the serialized size of one child reference in an
// internal page: extent start (8) + extent pages (4), so recovery can
// locate children on disk.
const childRefBytes = 12

// insertChild adds a separator and child after position idx in an
// internal page. The separator copy comes from the tree's arena.
func (p *page) insertChild(m *mem, idx int, sep []byte, child pageID) {
	p.seps = append(p.seps, nil)
	copy(p.seps[idx+1:], p.seps[idx:])
	p.seps[idx] = m.arena.Clone(sep)
	p.Children = append(p.Children, nilPage)
	copy(p.Children[idx+2:], p.Children[idx+1:])
	p.Children[idx+1] = child
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

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
