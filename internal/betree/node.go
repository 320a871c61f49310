package betree

import (
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

// mem bundles the tree's allocation helpers handed to node methods: the
// arena backs what stored records keep (see cowtree.RecordArena) and
// the separator copies, the pool recycles the record arrays (leaf
// entries and child buffers) displaced by growth, splits and flushes,
// and scratch holds a flush batch's fresh inserts between insertBatch's
// classify and merge passes. A buffered message is a cowtree.Record,
// the leaf entry it becomes: a flush moves messages unchanged until
// they land in a leaf.
type mem struct {
	arena   cowtree.RecordArena
	msgs    cowtree.Pool[cowtree.Record]
	scratch []cowtree.Record
}

// node is an in-memory Bε-tree node: the shared node (identity, tree
// position, pivots, on-disk extent, cache residency and a leaf's
// entries — see cowtree.Node) plus the interior payload, one message
// buffer per child beside the Pivots (one message per key — a newer
// update overwrites the buffered older one, which is the classic upsert
// collapse). Serialized is the full serialized size: header + entries
// for leaves, PivotBytes + bufBytes for interiors (PivotBytes alone is
// what the fanout budget bounds).
type node struct {
	cowtree.Node

	// bufs[ci] buffers exactly the messages ChildFor routes to
	// Children[ci], sorted by key, in an array sized to what it holds, so
	// the buffers in child order are the node's messages in key order.
	// bufSizes[ci] is its serialized footprint and bufBytes their sum.
	bufs     [][]cowtree.Record
	bufSizes []int
	bufBytes int
}

// bufGet returns the message child ci's buffer holds for t, or nil; ci
// is ChildFor(t), which the descent needs anyway.
func (n *node) bufGet(ci int, t kv.Target) *cowtree.Record { return cowtree.FindRecord(n.bufs[ci], t) }

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
// its bytes (flushes move already-owned messages down); with
// owned=false — the Put boundary, where key and val are the caller's
// reused buffers beside the message — only the bytes actually retained
// are copied (see cowtree.InsertRecord), so an accounting-mode overwrite
// costs no copy at all.
func (n *node) bufInsert(mm *mem, m cowtree.Record, key, val []byte, owned bool) int {
	var t kv.Target
	var kb [kv.KeySize]byte
	arena := &mm.arena
	if owned {
		t, arena = m.Target(&kb), nil
	} else {
		t = kv.NewTarget(key)
	}
	ci := n.ChildFor(t)
	var delta int
	n.bufs[ci], delta = cowtree.InsertRecord(&mm.msgs, arena, n.bufs[ci], m, t, val)
	n.bufSizes[ci] += delta
	n.bufBytes += delta
	n.Serialized += delta
	return delta
}

// insertBatch applies a sorted run of owned messages (distinct keys —
// the buffer upsert-collapses duplicates) to a leaf in two passes: one
// classify pass that applies overwrites in place and collects fresh
// inserts, then one merge pass that splices all inserts in a single
// sweep. It replaces the per-message InsertLeaf loop of a buffer flush,
// whose repeated binary search + entry shift made flush cascades the
// Bε-tree cell's hottest CPU path. The returned serialized delta equals
// the sum InsertLeaf would have returned message by message.
func (n *node) insertBatch(mm *mem, batch []cowtree.Record) int {
	delta := 0
	toIns := mm.scratch[:0]
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
	mm.scratch = toIns[:0]
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
	grown := mm.msgs.Get(oldLen + len(toIns))
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
	mm.msgs.Put(n.Entries)
	n.Entries = grown
	return delta
}

// insertChild adds a separator and child after position idx — child idx
// has split at sep (see cowtree.Pivots.InsertChild) — and cuts child
// idx's buffer there: messages with key >= sep now route to the new
// child. (Every split the tree performs follows a flush that has just
// emptied that buffer, so today the cut moves nothing; it keeps the
// partition right without leaning on that.)
func (n *node) insertChild(mm *mem, idx int, sep []byte, child nodeID) {
	n.Serialized += n.InsertChild(idx, sep, child)
	buf := n.bufs[idx]
	tail := mm.msgs.CloneTail(buf, cowtree.SearchRecords(buf, kv.NewTarget(sep)))
	moved := 0
	for i := range tail {
		moved += tail[i].Size()
	}
	n.bufs[idx] = mm.msgs.Fit(buf[:len(buf)-len(tail)])
	n.bufs = slices.Insert(n.bufs, idx+1, tail)
	n.bufSizes[idx] -= moved
	n.bufSizes = slices.Insert(n.bufSizes, idx+1, moved)
}

// splitInterior moves the upper half of an interior node (pivots AND
// their children's buffers, whole) into right (a fresh, registered
// node), returning the separator promoted to the parent.
func (n *node) splitInterior(right *node) []byte {
	right.Parent = n.Parent
	promoted := n.SplitHalf(&right.Pivots)
	cut := len(n.Children)
	right.bufs = append([][]cowtree.Record(nil), n.bufs[cut:]...)
	right.bufSizes = append([]int(nil), n.bufSizes[cut:]...)
	for _, b := range right.bufSizes {
		right.bufBytes += b
	}
	n.bufBytes -= right.bufBytes
	n.bufs = n.bufs[:cut]
	n.bufSizes = n.bufSizes[:cut]
	n.Serialized = n.PivotBytes() + n.bufBytes
	right.Serialized = right.PivotBytes() + right.bufBytes
	return promoted
}
