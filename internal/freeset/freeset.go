// Package freeset is the ordered set of free extents under both
// allocators: extfs's rotating first fit over the partition and
// cowtree's lowest-offset first fit inside one collection file. The set
// owns the structure, the allocators own the policy.
//
// It is a treap keyed by extent start and augmented with the subtree's
// maximum extent size, so the leftmost extent that fits, the first
// extent past a cursor, a carve and a merging release all cost
// O(log n). Both allocators used to keep a sorted slice, whose O(n)
// insert/delete memmoves were roughly a quarter of the fig2 B+Tree
// cell's CPU (cowtree's allocator, with its linear first-fit scan) and
// 45 % of the benchmark's lsm-write cell (extfs, 15–19 K extents under
// file churn). Each policy is pinned to its sorted-slice implementation
// by a differential test in its own package.
package freeset

import "fmt"

// Extent is a contiguous run of pages. Pages == 0 means "no extent".
type Extent struct {
	Start, Pages int64
}

// node is one free extent. Priorities are minted from a deterministic
// counter hash, so the tree shape — and therefore performance, but not
// the allocation results, which depend only on the key order — is
// reproducible across runs.
type node struct {
	ext         Extent
	prio        uint64
	max         int64 // max Pages within this subtree
	left, right *node
}

// Set is a set of disjoint, non-adjacent free extents. The zero value
// is empty and ready to use.
type Set struct {
	root *node
	// spare chains recycled nodes through their left pointers and fresh
	// ones are cut from slab, so the steady state allocates no nodes.
	spare    *node
	slab     []node
	prioSeed uint64
}

// slabNodes sizes a slab (12 KiB) for both kinds of benchmark cell: the
// tens of thousands of extents under an LSM cost a hundred allocations
// instead of one per node, and a B-tree cell, which allocates about
// 1 MB in its whole measured phase, over-allocates at most one slab per
// growing set. Slabs that grow with the set did show there (+6 % bytes).
const slabNodes = 256

// splitmix64 is the priority mixer (deterministic, well-distributed).
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

func (s *Set) newNode(e Extent) *node {
	nd := s.spare
	if nd != nil {
		s.spare = nd.left
	} else {
		if len(s.slab) == 0 {
			s.slab = make([]node, slabNodes)
		}
		nd, s.slab = &s.slab[0], s.slab[1:]
	}
	s.prioSeed++
	*nd = node{ext: e, prio: splitmix64(s.prioSeed), max: e.Pages}
	return nd
}

func (s *Set) recycle(nd *node) {
	nd.right = nil
	nd.left = s.spare
	s.spare = nd
}

// subMax is the largest extent in nd's subtree (0 for an empty one).
func (nd *node) subMax() int64 {
	if nd == nil {
		return 0
	}
	return nd.max
}

// upd pulls the subtree max up into nd.
func upd(nd *node) {
	nd.max = max(nd.ext.Pages, nd.left.subMax(), nd.right.subMax())
}

// join merges two treaps where every key in l precedes every key in r.
func join(l, r *node) *node {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio >= r.prio:
		l.right = join(l.right, r)
		upd(l)
		return l
	default:
		r.left = join(l, r.left)
		upd(r)
		return r
	}
}

// insert adds nd (a detached single node) into the subtree.
func insert(root, nd *node) *node {
	if root == nil {
		return nd
	}
	if nd.prio > root.prio {
		// Split root's subtree around nd's key.
		nd.left, nd.right = split(root, nd.ext.Start)
		upd(nd)
		return nd
	}
	if nd.ext.Start < root.ext.Start {
		root.left = insert(root.left, nd)
	} else {
		root.right = insert(root.right, nd)
	}
	upd(root)
	return root
}

// split partitions a treap into keys < at and keys >= at.
func split(nd *node, at int64) (l, r *node) {
	if nd == nil {
		return nil, nil
	}
	if nd.ext.Start < at {
		nd.right, r = split(nd.right, at)
		upd(nd)
		return nd, r
	}
	l, nd.left = split(nd.left, at)
	upd(nd)
	return l, nd
}

// FirstFit returns the lowest-offset extent of at least n > 0 pages.
func (s *Set) FirstFit(n int64) (Extent, bool) {
	nd := s.root
	if nd.subMax() < n {
		return Extent{}, false
	}
	for {
		switch {
		case nd.left.subMax() >= n:
			nd = nd.left
		case nd.ext.Pages >= n:
			return nd.ext, true
		default:
			nd = nd.right
		}
	}
}

// After returns the first extent that ends after page p: the one
// containing p, or else the next one above it.
func (s *Set) After(p int64) (e Extent, ok bool) {
	for nd := s.root; nd != nil; {
		if nd.ext.Start+nd.ext.Pages > p {
			e, ok = nd.ext, true
			nd = nd.left
		} else {
			nd = nd.right
		}
	}
	return e, ok
}

// Carve removes [start, start+n), which must lie inside one extent of
// the set.
func (s *Set) Carve(start, n int64) {
	var rest Extent
	s.root = s.carve(s.root, start, n, &rest)
	if rest.Pages > 0 {
		s.root = insert(s.root, s.newNode(rest))
	}
}

// carve cuts the range out of the node holding it, in place where it
// can: taking a prefix moves the node's start forward, which preserves
// the key order — the shrunk extent still sits strictly between its
// neighbours — a suffix only shrinks it, an exact fit removes the node,
// and a middle cut keeps the left part and hands the right one back in
// rest for the caller to insert from the root.
func (s *Set) carve(nd *node, start, n int64, rest *Extent) *node {
	end := nd.ext.Start + nd.ext.Pages
	switch {
	case start < nd.ext.Start:
		nd.left = s.carve(nd.left, start, n, rest)
	case start >= end:
		nd.right = s.carve(nd.right, start, n, rest)
	case n == nd.ext.Pages:
		merged := join(nd.left, nd.right)
		s.recycle(nd)
		return merged
	case start == nd.ext.Start:
		nd.ext = Extent{Start: start + n, Pages: nd.ext.Pages - n}
	default:
		nd.ext.Pages = start - nd.ext.Start
		*rest = Extent{Start: start + n, Pages: end - (start + n)}
	}
	upd(nd)
	return nd
}

// Release returns an extent to the set, merging it with the free
// neighbours it touches. It must not overlap any extent of the set.
func (s *Set) Release(e Extent) {
	if pred, ok := s.After(e.Start - 1); ok && pred.Start+pred.Pages == e.Start {
		s.Carve(pred.Start, pred.Pages)
		e = Extent{Start: pred.Start, Pages: pred.Pages + e.Pages}
	}
	if succ, ok := s.After(e.Start); ok && succ.Start == e.Start+e.Pages {
		s.Carve(succ.Start, succ.Pages)
		e.Pages += succ.Pages
	}
	s.root = insert(s.root, s.newNode(e))
}

// Check verifies the set's invariants — extents in start order,
// disjoint and non-adjacent; heap order on priorities; the subtree-max
// augmentation — passing each extent, in order, to visit. It is what
// the allocators' differential tests call after every step.
func (s *Set) Check(visit func(Extent)) error {
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("freeset: "+format, args...)
		}
	}
	end := int64(-1)
	var walk func(nd *node) int64
	walk = func(nd *node) int64 {
		if nd == nil {
			return 0
		}
		mx := max(walk(nd.left), nd.ext.Pages)
		if nd.ext.Pages <= 0 || nd.ext.Start <= end {
			fail("extent %+v is empty, or overlaps or touches its predecessor ending at %d", nd.ext, end)
		}
		end = nd.ext.Start + nd.ext.Pages
		visit(nd.ext)
		mx = max(mx, walk(nd.right))
		for _, c := range [2]*node{nd.left, nd.right} {
			if c != nil && c.prio > nd.prio {
				fail("heap order violated under %+v", nd.ext)
			}
		}
		if nd.max != mx {
			fail("stale max at %+v: %d, want %d", nd.ext, nd.max, mx)
		}
		return mx
	}
	walk(s.root)
	return err
}
