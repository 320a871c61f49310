package cowtree

import (
	"encoding/binary"

	"ptsbench/internal/kv"
)

// The leaf payload both engines share — Node.Entries, a leaf's records
// sorted by key — with its upsert, its split guard and half split, and
// the node image both engines write: the header, then a leaf's entries
// or an interior's pivot section and, in a Bε-tree, its buffered
// messages (counted in the header). An engine passes only its image
// magic.

// InsertLeaf upserts an unowned record — key and val, the caller's
// reused buffers, travel beside it (see InsertRecord) — into leaf n,
// returning the serialized size delta. An accounting-mode put takes
// nothing from the arena.
func (c *Core) InsertLeaf(n *Node, r Record, key, val []byte) int {
	var delta int
	n.Entries, delta = InsertRecord(&c.records, &c.arena, n.Entries, r, kv.NewTarget(key), val)
	n.Serialized += delta
	return delta
}

// LeafOverfull reports whether a leaf is over LeafPageBytes and can be
// split. A leaf holding one record stays whole however large it is: its
// half split would leave the leaf empty and the new one as large.
func (c *Core) LeafOverfull(leaf *Node) bool {
	return leaf.Serialized > c.cfg.LeafPageBytes && len(leaf.Entries) > 1
}

// SplitLeaf moves the upper half of leaf's entries into a new leaf,
// chains it after leaf, marks both dirty and admits the new leaf when
// leaf is resident (journal replay splits leaves recovery left out of
// the cache, and their right halves stay out too). It returns the new
// leaf and the separator, its first key, which the engine links the new
// leaf under the parent at, in the core's scratch (Core.sepBuf; the
// parent keeps only its words). The caller must use sep before the next
// SplitLeaf or SplitInterior, which overwrites the scratch. Both halves
// end up in pooled arrays of the capacity class their length calls for,
// which leaves room to refill toward the next split without regrowing:
// the moved half draws one, and the half that stays is re-homed when
// the array it was cut from is a class larger (a 9-entry leaf in 16
// slots would otherwise split into 4 entries still holding 16, and a
// batch-grown Bε-tree leaf halved repeatedly would keep N log N slots
// for N entries).
func (c *Core) SplitLeaf(leaf *Node) (right *Node, sep []byte) {
	right = c.NewNode(true)
	mid := len(leaf.Entries) / 2
	right.Parent = leaf.Parent
	right.Entries = c.records.CloneTail(leaf.Entries, mid)
	var moved int
	for i := range right.Entries {
		moved += right.Entries[i].Size()
	}
	right.Serialized += moved
	leaf.Entries = c.records.Fit(leaf.Entries[:mid])
	leaf.Serialized -= moved
	right.Next = leaf.Next
	leaf.Next = right.ID
	c.MarkDirty(leaf)
	if leaf.Resident {
		// The moved entries were counted while they lived in leaf; only
		// right's header is new to the cache.
		c.Admit(right)
		c.Resize(PageHeaderBytes - right.Serialized)
	}
	return right, right.Entries[0].Key(&c.sepBuf)
}

// AppendImage appends n's image to out: the PageHeaderBytes header —
// magic, the leaf flag at byte 4, the count at byte 8 (a leaf's entries,
// an interior's separators), a Bε-tree interior's buffered-message count
// at byte 12, zeros after it — then a leaf's entries (AppendRecord) or
// an interior's pivot section (AppendPivots, with resolve) followed by
// any buffered messages. The caller zero-pads the image to its extent.
func (n *Node) AppendImage(out []byte, magic uint32, resolve func(NodeID) Extent) []byte {
	var hdr [PageHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	if !n.Leaf {
		// A B+Tree interior's buffers are empty: a zero count, no messages.
		binary.LittleEndian.PutUint32(hdr[8:], uint32(n.NumSeps()))
		binary.LittleEndian.PutUint32(hdr[12:], uint32(n.Buf.count()))
		return n.Buf.appendMsgs(n.AppendPivots(append(out, hdr[:]...), resolve))
	}
	hdr[4] = 1
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(n.Entries)))
	out = append(out, hdr[:]...)
	for i := range n.Entries {
		out = AppendRecord(out, &n.Entries[i])
	}
	return out
}

// ParseImage fills n, a zero node, from an image AppendImage wrote under
// magic, Serialized included (an interior's counts its pivot section;
// ParseBuffers adds a Bε-tree's buffers); an interior gets its part
// here. It returns an interior's child extents in child order (its
// children get ids as recovery loads them) and the bytes read, after
// which an interior's buffered messages start. ok is false for another
// magic or a short or corrupt image.
func (n *Node) ParseImage(data []byte, magic uint32) (exts []Extent, used int, ok bool) {
	if len(data) < PageHeaderBytes || binary.LittleEndian.Uint32(data[0:]) != magic {
		return nil, 0, false
	}
	n.Leaf = data[4] == 1
	count := int(binary.LittleEndian.Uint32(data[8:]))
	off := PageHeaderBytes
	if !n.Leaf {
		n.Interior = new(Interior)
		exts, used, ok = n.ParsePivots(data[off:], count)
		n.Serialized = n.PivotBytes()
		return exts, off + used, ok
	}
	for i := 0; i < count; i++ {
		r, used := ParseRecord(data[off:])
		if used == 0 {
			return nil, 0, false
		}
		n.Entries = append(n.Entries, r)
		off += used
	}
	n.Serialized = off
	return nil, off, true
}
