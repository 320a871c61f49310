// Package freeset is the ordered set of free extents under both
// allocators: extfs's rotating first fit over the partition and
// cowtree's lowest-offset first fit inside one collection file. The set
// owns the structure, the allocators own the policy.
//
// It is a treap keyed by extent start and augmented with the subtree's
// maximum extent size, and each operation is one root-to-leaf descent:
// Take (the leftmost extent that fits, cut from its front), After (the
// first extent past a cursor), Carve, and a merging Release, which finds
// both neighbours of the extent on its own search path. Merges and cuts
// edit nodes in place, so only a release that touches no neighbour or a
// carve from the middle of an extent mints a node. ReleaseAll takes a
// batch — a checkpoint commit returns about as many extents as the set
// holds — and merges it in one in-order pass instead. Both allocators used
// to keep a sorted slice, whose O(n) insert/delete memmoves were roughly
// a quarter of the fig2 B+Tree cell's CPU (cowtree's allocator, with its
// linear first-fit scan) and 45 % of the benchmark's lsm-write cell
// (extfs, 15–19 K extents under file churn). Each policy is pinned to
// its sorted-slice implementation by a differential test in its own
// package.
package freeset

import (
	"cmp"
	"fmt"
	"slices"

	"ptsbench/internal/arena"
)

// Extent is a contiguous run of pages. Pages == 0 means "no extent".
type Extent struct {
	Start, Pages int64
}

// node is one free extent. Priorities are minted from a deterministic
// counter hash, so the tree shape — and therefore performance, but not
// the allocation results, which depend only on the set's contents — is
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
	size int // extents in the set
	// spare chains recycled nodes through their left pointers and fresh
	// ones are carved from mem, so the steady state allocates no nodes.
	spare    *node
	mem      arena.Arena[node]
	prioSeed uint64
	// walk and spine are ReleaseAll's stacks, kept for reuse.
	walk, spine []*node
}

// slabNodes is the node arena's chunk: a zero arena.Arena's 256 nodes
// (12 KiB), which suits both kinds of benchmark cell. The tens of
// thousands of extents under an LSM cost a hundred allocations instead
// of one per node, and a B-tree cell, which allocates about 1 MB in its
// whole measured phase, over-allocates at most one chunk per growing
// set. Chunks that grow with the set did show there (+6 % bytes).
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
		nd = s.mem.New()
	}
	s.prioSeed++
	s.size++
	*nd = node{ext: e, prio: splitmix64(s.prioSeed), max: e.Pages}
	return nd
}

func (s *Set) recycle(nd *node) {
	s.size--
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

// rotateRight lifts nd's left child above it; rotateLeft its right one.
func rotateRight(nd *node) *node {
	l := nd.left
	nd.left, l.right = l.right, nd
	upd(nd)
	upd(l)
	return l
}

func rotateLeft(nd *node) *node {
	r := nd.right
	nd.right, r.left = r.left, nd
	upd(nd)
	upd(r)
	return r
}

// Take removes the first n > 0 pages of the lowest-offset extent that
// holds at least n, and returns them: a first fit and a prefix carve in
// one descent.
func (s *Set) Take(n int64) (Extent, bool) {
	if s.root.subMax() < n {
		return Extent{}, false
	}
	var got Extent
	s.root = s.take(s.root, n, &got)
	return got, true
}

// take descends toward the leftmost extent of at least n pages (the
// subtree max says which side holds it) and cuts n pages off its front:
// in place, which keeps the key order, or by joining out an exact fit.
func (s *Set) take(nd *node, n int64, got *Extent) *node {
	switch {
	case nd.left.subMax() >= n:
		nd.left = s.take(nd.left, n, got)
	case nd.ext.Pages == n:
		*got = nd.ext
		merged := join(nd.left, nd.right)
		s.recycle(nd)
		return merged
	case nd.ext.Pages > n:
		*got = Extent{Start: nd.ext.Start, Pages: n}
		nd.ext = Extent{Start: nd.ext.Start + n, Pages: nd.ext.Pages - n}
	default:
		nd.right = s.take(nd.right, n, got)
	}
	upd(nd)
	return nd
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
		s.Release(rest) // touches neither neighbour: a plain insert
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
	if s.root == nil {
		s.root = s.newNode(e)
		return
	}
	s.root = s.release(s.root, e, nil, nil)
}

// release makes Release's one descent. e's start is not a key of the
// set, so its predecessor and successor both lie on its search path:
// pred is the last node the descent leaves rightward, succ the last it
// leaves leftward. At the path's last node, where e's slot is an empty
// child, e either extends the neighbour it touches in place — a new
// start for succ stays between its neighbours, like a carved prefix —
// or, touching both, is folded with the deeper neighbour (the last node
// itself, whose child on e's side is that empty slot) into the
// shallower one, the deeper one's other child taking its place; or,
// touching neither, fills the slot as a new node, rotated up past every
// ancestor of lower priority. The subtree max is refreshed on the way
// back up.
func (s *Set) release(nd *node, e Extent, pred, succ *node) *node {
	left := e.Start < nd.ext.Start
	child := nd.right
	if left {
		succ, child = nd, nd.left
	} else {
		pred = nd
	}
	if child != nil {
		child = s.release(child, e, pred, succ)
	} else {
		predTouches := pred != nil && pred.ext.Start+pred.ext.Pages == e.Start
		succTouches := succ != nil && succ.ext.Start == e.Start+e.Pages
		switch {
		case predTouches && succTouches && left: // nd is succ
			pred.ext.Pages += e.Pages + nd.ext.Pages
			child = nd.right
			s.recycle(nd)
			return child
		case predTouches && succTouches: // nd is pred
			succ.ext = Extent{Start: nd.ext.Start, Pages: nd.ext.Pages + e.Pages + succ.ext.Pages}
			child = nd.left
			s.recycle(nd)
			return child
		case predTouches:
			pred.ext.Pages += e.Pages
		case succTouches:
			succ.ext = Extent{Start: e.Start, Pages: e.Pages + succ.ext.Pages}
		default:
			child = s.newNode(e)
		}
	}
	if left {
		nd.left = child
		if child != nil && child.prio > nd.prio {
			return rotateRight(nd)
		}
	} else {
		nd.right = child
		if child != nil && child.prio > nd.prio {
			return rotateLeft(nd)
		}
	}
	upd(nd)
	return nd
}

// rebuildShare is the batch size, as a fraction 1/rebuildShare of the
// set's, from which ReleaseAll rebuilds the set rather than descending
// once per extent. Per extent, the rebuild costs a sort (~130 ns at 4 K
// extents) plus a share of an in-order pass over the set (~20 ns a
// node), a descent ~300 ns (BenchmarkRelease, BenchmarkReleaseAll): they
// break even near an eighth.
const rebuildShare = 8

// ReleaseAll releases every extent of es, leaving the set as Release
// would one by one; es may be reordered. A batch of more than an eighth
// of the set's size — a checkpoint commit frees thousands of extents at
// once — is sorted and merged with the set in one in-order walk instead,
// coalescing whatever touches, and the treap is rebuilt from the merged
// run as it streams out: O(n + k) after the sort, where k descents would
// each chase a root-to-leaf path.
func (s *Set) ReleaseAll(es []Extent) {
	if len(es)*rebuildShare <= s.size {
		for _, e := range es {
			s.Release(e)
		}
		return
	}
	slices.SortFunc(es, func(a, b Extent) int { return cmp.Compare(a.Start, b.Start) })
	if s.walk == nil {
		// Deeper than a treap of a few thousand nodes gets, so a growing
		// set allocates its stacks once, not at every new depth.
		s.walk, s.spine = make([]*node, 0, 64), make([]*node, 0, 64)
	}
	walk, spine := s.walk[:0], s.spine[:0]
	nd := s.root
	for {
		for ; nd != nil; nd = nd.left {
			walk = append(walk, nd)
		}
		var next *node
		if len(walk) > 0 {
			next = walk[len(walk)-1]
		}
		for len(es) > 0 && (next == nil || es[0].Start < next.ext.Start) {
			spine = s.pushRun(spine, nil, es[0])
			es = es[1:]
		}
		if next == nil {
			break
		}
		walk = walk[:len(walk)-1]
		nd = next.right
		spine = s.pushRun(spine, next, next.ext)
	}
	for i := len(spine) - 1; i >= 0; i-- {
		upd(spine[i])
	}
	s.root = spine[0]
	s.walk, s.spine = walk, spine[:0]
}

// pushRun appends extent e — held by node nd, or by no node yet — to the
// treap being built in key order, of which spine is the right spine,
// root first. An extent that touches the last one pushed (the spine's
// end) is folded into it; otherwise its node pops every spine node of
// lower priority, which become its left subtree, and hangs as the right
// child of the spine node left above it (a Cartesian-tree build). A
// node's max is refreshed as it leaves the spine, when its subtree is
// final.
func (s *Set) pushRun(spine []*node, nd *node, e Extent) []*node {
	if k := len(spine); k > 0 && spine[k-1].ext.Start+spine[k-1].ext.Pages == e.Start {
		spine[k-1].ext.Pages += e.Pages
		if nd != nil {
			s.recycle(nd)
		}
		return spine
	}
	if nd == nil {
		nd = s.newNode(e)
	}
	var last *node
	for k := len(spine); k > 0 && spine[k-1].prio < nd.prio; k-- {
		last = spine[k-1]
		upd(last)
		spine = spine[:k-1]
	}
	nd.left, nd.right = last, nil
	if k := len(spine); k > 0 {
		spine[k-1].right = nd
	}
	return append(spine, nd)
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
