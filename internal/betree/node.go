package betree

import (
	"bytes"
	"slices"

	"ptsbench/internal/cowtree"
	"ptsbench/internal/kv"
)

// fileExtent aliases the shared extent type.
type fileExtent = cowtree.Extent

// nodeID identifies an in-memory node. IDs are never reused. It aliases
// the shared core's node id so nodes plug into internal/cowtree without
// conversions.
type nodeID = cowtree.NodeID

const nilNode = cowtree.NilNode

// msgOverhead is the serialized per-message (and per-leaf-entry) header:
// keyLen(2) + valueLen(4) + seq(8).
const msgOverhead = 14

// pageHeaderBytes is the serialized node header size.
const pageHeaderBytes = 64

// childRefBytes is the serialized size of one child reference in an
// interior node: extent start (8) + extent pages (4).
const childRefBytes = 12

// mem bundles the tree's allocation helpers handed to node methods: the
// arena backs retained key/value copies, the pool recycles the message
// arrays (leaf entries and child buffers) displaced by growth, splits
// and flushes, and scratch holds a flush batch's fresh inserts between
// insertBatch's classify and merge passes.
type mem struct {
	arena   cowtree.Arena
	msgs    cowtree.Pool[message]
	scratch []message
}

// message is one buffered update or leaf entry: key, optional value
// bytes (content mode), accounted value length, sequence and tombstone
// flag. Buffers and leaves share the representation because a flush
// moves messages unchanged until they land in a leaf. A stored message
// owns one byte slice: key holds the key bytes and, in content mode, the
// value bytes follow them in the same allocation as key[len:cap] (see
// val). Two slices made a message 64 bytes; at 40 the arrays the tree
// keeps allocating for buffers cost a third less.
type message struct {
	key  []byte
	seq  uint64
	vlen int32
	del  bool
}

// makeMessage builds a message value (one construction point keeps the
// field order in one place).
func makeMessage(key []byte, seq uint64, vlen int, del bool) message {
	return message{key: key, seq: seq, vlen: int32(vlen), del: del}
}

// bytes returns the message's serialized footprint.
func (m *message) bytes() int {
	return msgOverhead + len(m.key) + int(m.vlen)
}

// val returns an owned message's value bytes, or nil when it carries
// none (accounting mode, tombstones).
func (m *message) val() []byte {
	if cap(m.key) == len(m.key) {
		return nil
	}
	return m.key[len(m.key):cap(m.key)]
}

// own gives an unowned message — the Put boundary's, whose key aliases
// the caller's reused buffer and whose value travels beside it as val —
// bytes of its own: key and value fused in one arena allocation (no heap
// allocation). resident is the key of the stored message it overwrites,
// or nil; with no value bytes to keep (accounting mode, a tombstone) the
// resident key bytes are kept and nothing is allocated.
func (mm *mem) own(m *message, val, resident []byte) {
	if resident != nil && val == nil {
		m.key = resident[:len(resident):len(resident)]
		return
	}
	b := mm.arena.Alloc(len(m.key) + len(val))
	copy(b, m.key)
	copy(b[len(m.key):], val)
	m.key = b[:len(m.key)]
}

// node is an in-memory Bε-tree node: the shared node header (identity,
// tree position, child ids, dirty flag, on-disk extent, cache residency
// — see cowtree.Node) plus the payload. Leaves carry entries; interior
// nodes carry separator keys beside the header's Children and one
// message buffer per child (one message per key — a newer update
// overwrites the buffered older one, which is the classic upsert
// collapse).
type node struct {
	cowtree.Node

	// Leaf payload, sorted by key.
	entries []message

	// Interior payload: Children[i] holds keys < seps[i] for
	// i < len(seps); Children[len(seps)] holds the rest.
	seps [][]byte

	// sepCache holds the separators' word decomposition so descents
	// probe raw uint64 pairs (see kv.SepCache); maintained by
	// refreshSepCache/insertSepCache after any seps mutation.
	sepCache kv.SepCache

	// bufs[ci] buffers exactly the messages childFor routes to
	// Children[ci], sorted by key, in an array sized to what it holds, so
	// the buffers in child order are the node's messages in key order.
	// bufSizes[ci] is its serialized footprint and bufBytes their sum.
	bufs     [][]message
	bufSizes []int
	bufBytes int

	// childExtents is only populated on nodes reconstructed from disk
	// (recovery): the on-disk locations of the children, in child order.
	childExtents []fileExtent

	// The header's Serialized is the full serialized size (pivot section
	// + buffer for interiors; header + entries for leaves). pivotBytes
	// tracks the pivot section alone — the quantity the fanout budget
	// bounds.
	pivotBytes int
}

// searchMsgs returns the index of the first message in msgs with
// key >= t.
func searchMsgs(msgs []message, t kv.Target) int {
	lo, hi := 0, len(msgs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var c int
		if mk := msgs[mid].key; t.Fast && len(mk) == kv.KeySize {
			c = kv.CompareKeyWords(mk, t.Hi, t.Lo)
		} else {
			c = kv.CompareKeys(mk, t.Key)
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// search returns the index of the first leaf entry with key >= t.
func (n *node) search(t kv.Target) int { return searchMsgs(n.entries, t) }

// refreshSepCache rebuilds the separator word cache. Callers invoke it
// after every seps mutation.
func (n *node) refreshSepCache() { n.sepCache.Refresh(n.seps) }

// childFor returns the index of the child covering t.
func (n *node) childFor(t kv.Target) int { return n.sepCache.UpperBound(n.seps, t) }

// childIndex returns the position of child id.
func (n *node) childIndex(id nodeID) int {
	for i, c := range n.Children {
		if c == id {
			return i
		}
	}
	return -1
}

// bufGet returns the message child ci's buffer holds for t, or nil; ci
// is childFor(t), which the descent needs anyway.
func (n *node) bufGet(ci int, t kv.Target) *message {
	buf := n.bufs[ci]
	if i := searchMsgs(buf, t); i < len(buf) && bytes.Equal(buf[i].key, t.Key) {
		return &buf[i]
	}
	return nil
}

// busiestChild returns the child whose buffer holds the most bytes — the
// first of them on a tie — and that byte count (0: nothing buffered).
func (n *node) busiestChild() (ci, size int) {
	for i, b := range n.bufSizes {
		if b > size {
			ci, size = i, b
		}
	}
	return ci, size
}

// bufInsert upserts a message into the buffer of the child covering its
// key, returning the serialized size delta. owned says the message owns
// its bytes (flushes move already-owned messages down, and one simply
// replaces the resident message); with owned=false — the Put boundary,
// where callers reuse their buffers and val is the value beside the
// message — mem.own copies bytes only when they are actually retained,
// so an accounting-mode overwrite costs no copy at all. An existing
// message for the same key is overwritten when the incoming one is at
// least as new (flush batches always move the newest surviving version,
// so the guard only matters on recovery replay).
func (n *node) bufInsert(mm *mem, m message, val []byte, owned bool) int {
	t := kv.NewTarget(m.key)
	ci := n.childFor(t)
	buf := n.bufs[ci]
	i := searchMsgs(buf, t)
	delta := m.bytes()
	if i < len(buf) && bytes.Equal(buf[i].key, m.key) {
		old := &buf[i]
		if m.seq < old.seq {
			return 0
		}
		delta -= old.bytes()
		if !owned {
			mm.own(&m, val, old.key)
		}
		*old = m
	} else {
		if !owned {
			mm.own(&m, val, nil)
		}
		n.bufs[ci] = mm.msgs.GrowInsert(buf, i, m)
	}
	n.bufSizes[ci] += delta
	n.bufBytes += delta
	n.Serialized += delta
	return delta
}

// insertLeaf inserts or replaces a leaf entry with an unowned message
// (val beside it, as in bufInsert), returning the serialized size delta.
// Stale messages (older seq than the stored entry) are dropped — they
// can only reach a leaf through recovery replay.
func (n *node) insertLeaf(mm *mem, m message, val []byte) int {
	i := n.search(kv.NewTarget(m.key))
	delta := m.bytes()
	if i < len(n.entries) && bytes.Equal(n.entries[i].key, m.key) {
		e := &n.entries[i]
		if m.seq < e.seq {
			return 0
		}
		delta -= e.bytes()
		mm.own(&m, val, e.key)
		*e = m
	} else {
		mm.own(&m, val, nil)
		n.entries = mm.msgs.GrowInsert(n.entries, i, m)
	}
	n.Serialized += delta
	return delta
}

// insertBatch applies a sorted run of owned messages (distinct keys —
// the buffer upsert-collapses duplicates) to a leaf in two passes: one
// classify pass that applies overwrites in place and collects fresh
// inserts, then one merge pass that splices all inserts in a single
// sweep. It replaces the per-message insertLeaf loop of a buffer flush,
// whose repeated binary search + entry shift made flush cascades the
// Bε-tree cell's hottest CPU path. The returned serialized delta equals
// the sum insertLeaf would have returned message by message.
func (n *node) insertBatch(mm *mem, batch []message) int {
	delta := 0
	toIns := mm.scratch[:0]
	ei := n.search(kv.NewTarget(batch[0].key))
	for bi := range batch {
		m := &batch[bi]
		for ei < len(n.entries) && kv.CompareKeys(n.entries[ei].key, m.key) < 0 {
			ei++
		}
		if ei < len(n.entries) && bytes.Equal(n.entries[ei].key, m.key) {
			e := &n.entries[ei]
			if m.seq < e.seq {
				continue // stale (recovery replay only)
			}
			delta += m.bytes() - e.bytes()
			*e = *m
			continue
		}
		toIns = append(toIns, *m)
		delta += m.bytes()
	}
	mm.scratch = toIns[:0]
	n.Serialized += delta
	if len(toIns) == 0 {
		return delta
	}
	oldLen := len(n.entries)
	if cap(n.entries) >= oldLen+len(toIns) {
		// Backward in-place merge: walk both runs from the end so no
		// surviving entry is overwritten before it moves.
		n.entries = n.entries[:oldLen+len(toIns)]
		si, bi := oldLen-1, len(toIns)-1
		for dst := len(n.entries) - 1; bi >= 0; dst-- {
			if si >= 0 && kv.CompareKeys(n.entries[si].key, toIns[bi].key) > 0 {
				n.entries[dst] = n.entries[si]
				si--
			} else {
				n.entries[dst] = toIns[bi]
				bi--
			}
		}
		return delta
	}
	grown := mm.msgs.Get(oldLen + len(toIns))
	si, bi := 0, 0
	for dst := 0; dst < len(grown); dst++ {
		switch {
		case si >= oldLen:
			grown[dst] = toIns[bi]
			bi++
		case bi >= len(toIns) || kv.CompareKeys(n.entries[si].key, toIns[bi].key) < 0:
			grown[dst] = n.entries[si]
			si++
		default:
			grown[dst] = toIns[bi]
			bi++
		}
	}
	mm.msgs.Put(n.entries)
	n.entries = grown
	return delta
}

// splitLeaf moves the upper half of the entries into right (a fresh,
// registered node) and returns the separator key (first key of the new
// node). Each half ends up in a pooled array of the capacity
// class its length calls for: a batch flush grows a leaf to the batch
// size and splitLeafToFit then halves it repeatedly, so a left half that
// kept the array it was cut from would leave N log N slots for N entries.
func (n *node) splitLeaf(mm *mem, right *node) []byte {
	mid := len(n.entries) / 2
	right.Parent = n.Parent
	right.Leaf = true
	right.entries = mm.msgs.CloneTail(n.entries, mid)
	var movedBytes int
	for i := mid; i < len(n.entries); i++ {
		movedBytes += n.entries[i].bytes()
	}
	right.Serialized = pageHeaderBytes + movedBytes
	n.entries = mm.msgs.Fit(n.entries[:mid])
	n.Serialized -= movedBytes
	right.Next = n.Next
	n.Next = right.ID
	return right.entries[0].key
}

// insertChild adds a separator and child after position idx — child idx
// has split at sep — and cuts child idx's buffer there: messages with
// key >= sep now route to the new child. (Every split the tree performs
// follows a flush that has just emptied that buffer, so today the cut
// moves nothing; it keeps the partition right without leaning on that.)
// The separator copy comes from the tree's arena.
func (n *node) insertChild(mm *mem, idx int, sep []byte, child nodeID) {
	n.seps = slices.Insert(n.seps, idx, mm.arena.Clone(sep))
	n.Children = slices.Insert(n.Children, idx+1, child)
	buf := n.bufs[idx]
	tail := mm.msgs.CloneTail(buf, searchMsgs(buf, kv.NewTarget(sep)))
	moved := 0
	for i := range tail {
		moved += tail[i].bytes()
	}
	n.bufs[idx] = mm.msgs.Fit(buf[:len(buf)-len(tail)])
	n.bufs = slices.Insert(n.bufs, idx+1, tail)
	n.bufSizes[idx] -= moved
	n.bufSizes = slices.Insert(n.bufSizes, idx+1, moved)
	delta := 2 + len(sep) + childRefBytes
	n.pivotBytes += delta
	n.Serialized += delta
	n.insertSepCache(idx, n.seps[idx])
}

// insertSepCache splices one separator's decomposed words into the word
// cache.
func (n *node) insertSepCache(idx int, sep []byte) { n.sepCache.Insert(idx, sep) }

// splitInterior moves the upper half of an interior node (pivots AND
// their children's buffers, whole) into right (a fresh, registered
// node), returning the separator promoted to the parent.
func (n *node) splitInterior(right *node) []byte {
	mid := len(n.seps) / 2
	promoted := n.seps[mid]
	right.Parent = n.Parent
	right.seps = append([][]byte(nil), n.seps[mid+1:]...)
	right.Children = append([]nodeID(nil), n.Children[mid+1:]...)
	right.bufs = append([][]message(nil), n.bufs[mid+1:]...)
	right.bufSizes = append([]int(nil), n.bufSizes[mid+1:]...)
	for _, b := range right.bufSizes {
		right.bufBytes += b
	}
	n.bufBytes -= right.bufBytes

	n.seps = n.seps[:mid]
	n.Children = n.Children[:mid+1]
	n.bufs = n.bufs[:mid+1]
	n.bufSizes = n.bufSizes[:mid+1]
	n.recomputeSerialized()
	n.refreshSepCache()
	right.recomputeSerialized()
	right.refreshSepCache()
	return promoted
}

// recomputeSerialized recalculates an interior node's pivot and total
// footprints from scratch.
func (n *node) recomputeSerialized() {
	s := pageHeaderBytes + childRefBytes*len(n.Children)
	for _, sep := range n.seps {
		s += 2 + len(sep)
	}
	n.pivotBytes = s
	n.Serialized = s + n.bufBytes
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}
