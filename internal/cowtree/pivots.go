package cowtree

import (
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

// Interior is the part of a node only interiors have (Node.Interior):
// the pivot section and a Bε-tree's message buffers. Interiors get it
// from the core's arena (NewNode) or from ParseImage; a leaf has none.
type Interior struct {
	Pivots
	// Buf is a Bε-tree interior's message buffers, one per child (see
	// NewBuffers); a B+Tree's interiors leave it zero, Msgs nil.
	Buf Buffers
}

// buffered reports whether the interior carries message buffers.
func (in *Interior) buffered() bool { return in.Buf.Msgs != nil }

// Pivots is an interior node's pivot section, the same in both tree
// engines: the separators and the child ids, the child lookup, the
// child insert and half split, the section's footprint and its codec.
// Interior embeds it, so a node reaches Children and these methods
// directly. The zero value is an empty set.
//
// Each separator is a kv.KeySize key, held only as its big-endian word
// pair, which a descent's binary search probes directly (a separator's
// two words side by side, one cache line per probe); NumSeps and Sep
// read them back.
type Pivots struct {
	// words are the separators' words: Children[i] holds keys <
	// separator i for i < NumSeps, Children[NumSeps] the rest.
	words []sepWords

	// Children are an interior node's child ids, in key order.
	Children []NodeID
}

type sepWords struct{ hi, lo uint64 }

// NumSeps returns the number of separators.
func (p *Pivots) NumSeps() int { return len(p.words) }

// Sep returns separator i, its words encoded into buf.
func (p *Pivots) Sep(i int, buf *[kv.KeySize]byte) []byte {
	w := p.words[i]
	binary.BigEndian.PutUint64(buf[:8], w.hi)
	binary.BigEndian.PutUint64(buf[8:], w.lo)
	return buf[:]
}

// ChildFor returns the index of the child covering t: the number of
// separators <= t (a key equal to a separator goes right), by a binary
// search over the words. It inlines into the engines' descent loops.
func (p *Pivots) ChildFor(t kv.Target) int {
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
// on each miss in turn. leaves must be as long as ts.
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
		for i := range ts {
			p := leaves[i]
			base[i], n[i] = 0, 0
			if p.Leaf {
				continue
			}
			interior = true
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

// InitRoot fills an empty set as a new root's: left, sep, right. sep
// is only read, as InsertChild reads it.
func (p *Pivots) InitRoot(left NodeID, sep []byte, right NodeID) {
	p.insertSep(0, sep)
	p.Children = []NodeID{left, right}
}

// InsertChild adds sep and child after position idx — child idx has
// split at sep — and returns the serialized size delta. sep is only
// read (a split hands it over in scratch bytes).
func (p *Pivots) InsertChild(idx int, sep []byte, child NodeID) int {
	p.insertSep(idx, sep)
	p.Children = slices.Insert(p.Children, idx+1, child)
	return 2 + kv.KeySize + ChildRefBytes
}

// insertSep inserts sep's words as separator idx.
func (p *Pivots) insertSep(idx int, sep []byte) {
	hi, lo := kv.DecomposeKey(sep)
	p.words = slices.Insert(p.words, idx, sepWords{hi, lo})
}

// SplitHalf moves the upper half of the set into right (empty) and
// returns the separator between the halves, which the parent takes,
// encoded into buf. Both halves end up in arrays sized to what they
// hold: the half that stays is re-homed too, as SplitLeaf re-homes a
// leaf's, or it would keep its pre-split capacity, twice what it holds.
func (p *Pivots) SplitHalf(right *Pivots, buf *[kv.KeySize]byte) []byte {
	mid := p.NumSeps() / 2
	promoted := p.Sep(mid, buf)
	right.words = slices.Clone(p.words[mid+1:])
	p.words = slices.Clone(p.words[:mid])
	right.Children = slices.Clone(p.Children[mid+1:])
	p.Children = slices.Clone(p.Children[:mid+1])
	return promoted
}

// PivotBytes returns the serialized size of an interior image without
// its payload: the header and the pivot section.
func (p *Pivots) PivotBytes() int {
	return PageHeaderBytes + ChildRefBytes*len(p.Children) + (2+kv.KeySize)*len(p.words)
}

// AppendPivots appends the pivot section to out: each separator as a
// 2-byte length and its bytes, then one child reference per child.
// resolve maps a child id to its current on-disk extent; nil writes
// empty references.
func (p *Pivots) AppendPivots(out []byte, resolve func(NodeID) Extent) []byte {
	var kb [kv.KeySize]byte
	for i := 0; i < p.NumSeps(); i++ {
		sep := p.Sep(i, &kb)
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
// data is too short or holds a separator that is not a kv.KeySize key.
func (p *Pivots) ParsePivots(data []byte, count int) (exts []Extent, used int, ok bool) {
	const sepBytes = 2 + kv.KeySize
	if count < 0 || count > len(data)/sepBytes {
		return nil, 0, false
	}
	p.words = make([]sepWords, count)
	off := 0
	for i := range p.words {
		if binary.LittleEndian.Uint16(data[off:]) != kv.KeySize {
			return nil, 0, false
		}
		p.words[i].hi, p.words[i].lo = kv.DecomposeKey(data[off+2 : off+sepBytes])
		off += sepBytes
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
	return exts, off, true
}

// NewRoot grows the tree by a level: a new interior root over left and
// its new right sibling at sep.
func (c *Core) NewRoot(left *Node, sep []byte, right *Node) *Node {
	root := c.NewNode(false)
	root.InitRoot(left.ID, sep, right.ID)
	root.Serialized = root.PivotBytes()
	left.Parent, right.Parent = root.ID, root.ID
	c.root = root.ID
	return root
}

// LinkChild links right, left's new right sibling, under left's parent
// at sep, cuts a Bε-tree parent's buffer of left there, and marks the
// parent dirty. It returns the parent.
func (c *Core) LinkChild(left *Node, sep []byte, right *Node) *Node {
	parent := c.nodes[left.Parent]
	idx := parent.ChildIndex(left.ID)
	parent.Serialized += parent.InsertChild(idx, sep, right.ID)
	if parent.buffered() {
		c.cutBuffer(&parent.Buf, idx, sep)
	}
	right.Parent = parent.ID
	c.MarkDirty(parent)
	return parent
}

// SplitInterior moves the upper half of interior n — pivots and, in a
// Bε-tree, those children's buffers whole — into a new node, reparents
// the moved children and marks both halves dirty. It returns the new
// node and the separator promoted between them, in the core's scratch
// (see SplitLeaf): the caller must use promoted before the next
// SplitLeaf or SplitInterior, which overwrites the scratch.
func (c *Core) SplitInterior(n *Node) (right *Node, promoted []byte) {
	right = c.NewNode(false)
	right.Parent = n.Parent
	promoted = n.SplitHalf(&right.Pivots, &c.sepBuf)
	n.Serialized, right.Serialized = n.PivotBytes(), right.PivotBytes()
	if n.buffered() {
		n.Buf.splitAt(len(n.Children), &right.Buf)
		n.Serialized += n.Buf.Bytes
		right.Serialized += right.Buf.Bytes
	}
	c.MarkDirty(n)
	for _, ch := range right.Children {
		c.nodes[ch].Parent = right.ID
	}
	return right, promoted
}
