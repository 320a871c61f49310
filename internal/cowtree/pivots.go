package cowtree

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"slices"

	"ptsbench/internal/kv"
)

// PageHeaderBytes is the serialized node header both engines' images
// start with (magic, leaf flag, counts; the rest zero).
const PageHeaderBytes = 64

// ChildRefBytes is the serialized size of one child reference in an
// interior image: extent start (8) + extent pages (4), so recovery can
// locate the children on disk.
const ChildRefBytes = 12

// Pivots is an interior node's pivot section, the same in both tree
// engines: the separators and the child ids, with the separators' word
// cache, the child lookup, the child insert and half split, the
// section's footprint and its codec. Node embeds it, so an engine's
// node type reaches Children and these methods directly. The zero value
// is an empty set (a leaf's).
type Pivots struct {
	// Seps are the separators: Children[i] holds keys < Seps[i] for
	// i < len(Seps), Children[len(Seps)] the rest. Only Pivots' methods
	// change them, keeping the word cache in step.
	Seps [][]byte

	// Children are an interior node's child ids, in key order (nil for
	// leaves).
	Children []NodeID

	// words caches the separators' big-endian word decomposition while
	// every separator is a kv.KeySize key, so a descent's binary search
	// probes raw uint64 pairs instead of re-decoding separator bytes on
	// every comparison; a separator's two words sit side by side, so a
	// probe loads one cache line, not one per word. While some separator
	// has another width, words is empty (see mixed) and searches compare
	// the separator bytes. The separators only change on splits, so
	// keeping the cache is off the hot path.
	words []sepWords
}

type sepWords struct{ hi, lo uint64 }

// mixed reports that the word cache is off: some separator is not a
// kv.KeySize key. It is derived rather than stored, which keeps Node at
// its size.
func (p *Pivots) mixed() bool { return len(p.words) != len(p.Seps) }

// ChildFor returns the index of the child covering t: the number of
// separators <= t (a key equal to a separator goes right). It inlines
// into the engines' descent loops as one call of upperBound.
func (p *Pivots) ChildFor(t kv.Target) int { return p.upperBound(t) }

// upperBound is ChildFor's search: over the word cache when both it and
// t have words, over the separator bytes otherwise.
func (p *Pivots) upperBound(t kv.Target) int {
	if t.Fast && !p.mixed() {
		w := p.words
		lo, hi := 0, len(w)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s := w[mid]; s.hi < t.Hi || (s.hi == t.Hi && s.lo <= t.Lo) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	lo, hi := 0, len(p.Seps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var cmp int
		if sk := p.Seps[mid]; t.Fast && len(sk) == kv.KeySize {
			cmp = kv.CompareKeyWords(sk, t.Hi, t.Lo)
		} else {
			cmp = kv.CompareKeys(sk, t.Key)
		}
		if cmp <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lockstep is how many targets DescendAll searches side by side: a
// read wave at the benchmark's queue depth, and about as many cache
// misses as a core keeps in flight.
const lockstep = 16

// DescendAll sets leaves[i] to the leaf covering ts[i], for every i —
// ChildFor at each level, root to leaf, as a single-key descent finds
// it. The targets go down together, lockstep at a time: level by level,
// and within a level one binary-search step at a time for each target.
// A step over the word cache is branch-free (the borrow of a 128-bit
// subtraction picks the half), so the CPU issues every target's probe
// before the first one's cache miss returns, where a lone search waits
// on each miss in turn. A target without words, or a node whose cache
// is off, takes upperBound for that level. leaves must be as long as
// ts.
func (c *Core) DescendAll(ts []kv.Target, leaves []*Node) {
	for len(ts) > lockstep {
		c.descendGroup(ts[:lockstep], leaves[:lockstep])
		ts, leaves = ts[lockstep:], leaves[lockstep:]
	}
	c.descendGroup(ts, leaves)
}

// descendGroup is DescendAll for at most lockstep targets. For target
// i at an interior, the child index lies in [base[i], base[i]+n[i]]
// and every separator before base[i] is <= the target; a step halves n
// (Khuong and Morin's branch-free search), and once n is 1 the
// separator at base decides between the two.
func (c *Core) descendGroup(ts []kv.Target, leaves []*Node) {
	var (
		base, n [lockstep]int
		words   [lockstep][]sepWords
	)
	root := c.nodes[c.root]
	for i := range ts {
		leaves[i] = root
	}
	for {
		interior, steps := false, 0
		for i, t := range ts {
			p := leaves[i]
			base[i], n[i] = 0, 0
			if p.Leaf {
				continue
			}
			interior = true
			if !t.Fast || p.mixed() {
				base[i] = p.upperBound(t)
				continue
			}
			words[i] = p.words
			n[i] = len(p.words)
			steps = max(steps, bits.Len(uint(n[i]-1)))
		}
		if !interior {
			return
		}
		for ; steps > 0; steps-- {
			for i := range ts {
				if n[i] <= 1 {
					continue
				}
				half := n[i] >> 1
				base[i] += half &^ -sepAbove(words[i][base[i]+half], ts[i])
				n[i] -= half
			}
		}
		for i, t := range ts {
			p := leaves[i]
			if p.Leaf {
				continue
			}
			if n[i] > 0 {
				base[i] += 1 - sepAbove(words[i][base[i]], t)
			}
			leaves[i] = c.nodes[p.Children[base[i]]]
		}
	}
}

// sepAbove is 1 when separator s is above t and 0 when it is <= t: the
// borrow out of t - s over the two words, without a branch.
func sepAbove(s sepWords, t kv.Target) int {
	_, b := bits.Sub64(t.Lo, s.lo, 0)
	_, b = bits.Sub64(t.Hi, s.hi, b)
	return int(b)
}

// ChildIndex returns the position of child id. id must be one of the
// children: the engines call it for the left half of a split, whose
// Parent lists it — Core.Check asserts that every child's Parent is the
// node listing it, and the conformance suite (kvtest.Run, behind each
// engine's TestEngineConformance) runs Check after every scenario. For
// any other id it returns -1.
func (p *Pivots) ChildIndex(id NodeID) int { return slices.Index(p.Children, id) }

// InitRoot fills an empty set as a new root's: left, sep, right. The
// set keeps sep itself.
func (p *Pivots) InitRoot(left NodeID, sep []byte, right NodeID) {
	p.Seps = [][]byte{sep}
	p.Children = []NodeID{left, right}
	p.refresh()
}

// InsertChild adds sep and child after position idx — child idx has
// split at sep — and returns the serialized size delta. The set keeps
// sep itself: a split hands over bytes the tree owns.
func (p *Pivots) InsertChild(idx int, sep []byte, child NodeID) int {
	// Splice the separator's words in (a full refresh per child insert
	// would re-decode the whole fanout on every leaf split).
	if !p.mixed() {
		if hi, lo, ok := kv.DecomposeKey(sep); ok {
			p.words = slices.Insert(p.words, idx, sepWords{hi, lo})
		} else {
			p.words = p.words[:0]
		}
	}
	p.Seps = slices.Insert(p.Seps, idx, sep)
	p.Children = slices.Insert(p.Children, idx+1, child)
	return 2 + len(sep) + ChildRefBytes
}

// SplitHalf moves the upper half of the set into right (empty) and
// returns the separator between the halves, which the parent takes.
func (p *Pivots) SplitHalf(right *Pivots) []byte {
	mid := len(p.Seps) / 2
	promoted := p.Seps[mid]
	right.Seps = append([][]byte(nil), p.Seps[mid+1:]...)
	right.Children = append([]NodeID(nil), p.Children[mid+1:]...)
	p.Seps = p.Seps[:mid]
	p.Children = p.Children[:mid+1]
	p.refresh()
	right.refresh()
	return promoted
}

// refresh rebuilds the word cache from the separators.
func (p *Pivots) refresh() {
	p.words = p.words[:0]
	for _, sep := range p.Seps {
		hi, lo, ok := kv.DecomposeKey(sep)
		if !ok {
			p.words = p.words[:0]
			return
		}
		p.words = append(p.words, sepWords{hi, lo})
	}
}

// PivotBytes returns the serialized size of an interior image without
// its payload: the header and the pivot section.
func (p *Pivots) PivotBytes() int {
	s := PageHeaderBytes + ChildRefBytes*len(p.Children)
	for _, sep := range p.Seps {
		s += 2 + len(sep)
	}
	return s
}

// AppendPivots appends the pivot section to out: each separator as a
// 2-byte length and its bytes, then one child reference per child.
// resolve maps a child id to its current on-disk extent; nil writes
// empty references.
func (p *Pivots) AppendPivots(out []byte, resolve func(NodeID) Extent) []byte {
	for _, sep := range p.Seps {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(sep)))
		out = append(out, sep...)
	}
	for _, c := range p.Children {
		var ext Extent
		if resolve != nil {
			ext = resolve(c)
		}
		out = binary.LittleEndian.AppendUint64(out, uint64(ext.Start))
		out = binary.LittleEndian.AppendUint32(out, uint32(ext.Pages))
	}
	return out
}

// ParsePivots fills an empty set from a pivot section of count
// separators at the start of data, returning the children's extents in
// child order (the children get ids as recovery loads them; until then
// they are NilNode) and the bytes the section took. ok is false when
// data is too short.
func (p *Pivots) ParsePivots(data []byte, count int) (exts []Extent, used int, ok bool) {
	off := 0
	for i := 0; i < count; i++ {
		if off+2 > len(data) {
			return nil, 0, false
		}
		sl := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if off+sl > len(data) {
			return nil, 0, false
		}
		p.Seps = append(p.Seps, bytes.Clone(data[off:off+sl]))
		off += sl
	}
	if off+ChildRefBytes*(count+1) > len(data) {
		return nil, 0, false
	}
	exts = make([]Extent, count+1)
	for i := range exts {
		exts[i] = Extent{
			Start: int64(binary.LittleEndian.Uint64(data[off:])),
			Pages: int64(binary.LittleEndian.Uint32(data[off+8:])),
		}
		off += ChildRefBytes
	}
	p.Children = make([]NodeID, count+1)
	p.refresh()
	return exts, off, true
}

// NewRoot grows the tree by a level: a new interior root over left and
// its new right sibling at sep (kept without a copy).
func (c *Core) NewRoot(left *Node, sep []byte, right *Node) *Node {
	root := c.NewNode(false)
	root.InitRoot(left.ID, sep, right.ID)
	root.Serialized = root.PivotBytes()
	left.Parent, right.Parent = root.ID, root.ID
	c.root = root.ID
	return root
}

// LinkChild links right, left's new right sibling, under left's parent
// at sep (kept without a copy), cuts a Bε-tree parent's buffer of left
// there, and marks the parent dirty. It returns the parent.
func (c *Core) LinkChild(left *Node, sep []byte, right *Node) *Node {
	parent := c.nodes[left.Parent]
	idx := parent.ChildIndex(left.ID)
	parent.Serialized += parent.InsertChild(idx, sep, right.ID)
	if parent.Buf != nil {
		c.cutBuffer(parent.Buf, idx, sep)
	}
	right.Parent = parent.ID
	c.MarkDirty(parent)
	return parent
}

// SplitInterior moves the upper half of interior n — pivots and, in a
// Bε-tree, those children's buffers whole — into a new node, reparents
// the moved children and marks both halves dirty. It returns the new
// node and the separator promoted between them.
func (c *Core) SplitInterior(n *Node) (right *Node, promoted []byte) {
	right = c.NewNode(false)
	right.Parent = n.Parent
	promoted = n.SplitHalf(&right.Pivots)
	n.Serialized, right.Serialized = n.PivotBytes(), right.PivotBytes()
	if n.Buf != nil {
		right.Buf = c.bufSlab.Get()
		n.Buf.splitAt(len(n.Children), right.Buf)
		n.Serialized += n.Buf.Bytes
		right.Serialized += right.Buf.Bytes
	}
	c.MarkDirty(n)
	for _, ch := range right.Children {
		c.nodes[ch].Parent = right.ID
	}
	return right, promoted
}
