package cowtree

import (
	"fmt"

	"ptsbench/internal/extfs"
	"ptsbench/internal/freeset"
)

// extentAllocator places node images as page extents inside the tree's
// one collection file, WiredTiger-style. Freed extents are reused
// lowest-offset-first, which keeps the file compact and the engine's LBA
// footprint confined — the behaviour behind the paper's Fig 4
// (WiredTiger never writes ~45% of the device). Extents freed by
// copy-on-write rewrites only return to the allocator when the next
// checkpoint commits, so the page images a completed checkpoint
// references survive until a newer one replaces them (the avail-list
// discipline crash recovery requires).
//
// The free set is a freeset.Set; this type is the policy over it:
// lowest-offset first fit, file growth in chunks, deferred release —
// pinned by a differential test against the sorted-slice implementation
// it replaced.
type extentAllocator struct {
	file *extfs.File
	free freeset.Set
	// pending holds extents freed since the last checkpoint; they join
	// the free list only when the checkpoint commits.
	pending      []Extent
	pendingTotal int64
	// growChunk batches file growth to limit filesystem fragmentation.
	growChunk int64
}

// newExtentAllocator allocates inside f, growing it growChunk pages at a
// time; growChunk <= 0 selects 256.
func newExtentAllocator(f *extfs.File, growChunk int64) extentAllocator {
	if growChunk <= 0 {
		growChunk = 256
	}
	return extentAllocator{file: f, growChunk: growChunk}
}

// alloc returns a contiguous extent of n pages, reusing the
// lowest-offset free extent that fits, growing the file if necessary.
func (m *extentAllocator) alloc(n int64) (Extent, error) {
	if n <= 0 {
		return Extent{}, fmt.Errorf("cowtree: alloc of %d pages", n)
	}
	if e, ok := m.free.Take(n); ok {
		return e, nil
	}
	grow := n
	if grow < m.growChunk {
		grow = m.growChunk
	}
	start := m.file.SizePages()
	if err := m.file.Grow(grow); err != nil {
		// Retry with the exact need (the chunk may not fit).
		if grow == n {
			return Extent{}, err
		}
		grow = n
		if err := m.file.Grow(grow); err != nil {
			return Extent{}, err
		}
	}
	if grow > n {
		m.release(Extent{Start: start + n, Pages: grow - n})
	}
	return Extent{Start: start, Pages: n}, nil
}

// release returns an extent to the free pool, merging neighbours.
func (m *extentAllocator) release(e Extent) {
	if e.Pages > 0 {
		m.free.Release(e)
	}
}

// releaseDeferred queues an extent for release at the next checkpoint
// commit.
func (m *extentAllocator) releaseDeferred(e Extent) {
	if e.Pages > 0 {
		m.pending = append(m.pending, e)
		m.pendingTotal += e.Pages
	}
}

// pendingMark returns a cursor into the deferred-release queue; a
// checkpoint snapshots it at creation and releases only that prefix at
// commit. Extents deferred DURING the checkpoint may still be
// referenced by images the checkpoint already wrote, so they wait for
// the next one.
func (m *extentAllocator) pendingMark() int { return len(m.pending) }

// commitPendingPrefix releases the first n deferred extents, as one
// batch: on an aged tree a checkpoint frees about as many extents as the
// free set holds.
func (m *extentAllocator) commitPendingPrefix(n int) {
	if n > len(m.pending) {
		n = len(m.pending)
	}
	for _, e := range m.pending[:n] {
		m.pendingTotal -= e.Pages
	}
	m.free.ReleaseAll(m.pending[:n])
	m.pending = append(m.pending[:0], m.pending[n:]...)
}
