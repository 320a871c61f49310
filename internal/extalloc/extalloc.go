// Package extalloc implements the extent allocator shared by the
// page/node-based engines (B+Tree, Bε-tree): page-extents inside one
// collection file, WiredTiger-style. Freed extents are reused
// lowest-offset-first, which keeps the file compact and the engine's
// LBA footprint confined — the behaviour behind the paper's Fig 4
// (WiredTiger never writes ~45% of the device). Extents freed by
// copy-on-write rewrites only return to the allocator when the next
// checkpoint commits, so the page images a completed checkpoint
// references survive until a newer one replaces them (the avail-list
// discipline crash recovery requires).
//
// The free set is a freeset.Set; this package is the policy over it:
// lowest-offset first fit, file growth in chunks, deferred release —
// pinned by a differential test against the sorted-slice implementation
// it replaced.
package extalloc

import (
	"fmt"

	"ptsbench/internal/extfs"
	"ptsbench/internal/freeset"
)

// Extent is a contiguous run of pages inside the collection file.
// Pages == 0 means "no extent" (a node never written).
type Extent = freeset.Extent

// Manager allocates extents inside one file.
type Manager struct {
	file      *extfs.File
	free      freeset.Set
	freeTotal int64
	// pending holds extents freed since the last checkpoint; they join
	// the free list only when the checkpoint commits.
	pending      []Extent
	pendingTotal int64
	// growChunk batches file growth to limit filesystem fragmentation.
	growChunk int64
}

// New creates a manager over f. growChunk <= 0 selects a default.
func New(f *extfs.File, growChunk int64) *Manager {
	if growChunk <= 0 {
		growChunk = 256
	}
	return &Manager{file: f, growChunk: growChunk}
}

// Alloc returns a contiguous extent of n pages, reusing the
// lowest-offset free extent that fits, growing the file if necessary.
func (m *Manager) Alloc(n int64) (Extent, error) {
	if n <= 0 {
		return Extent{}, fmt.Errorf("extalloc: alloc of %d pages", n)
	}
	if e, ok := m.free.FirstFit(n); ok {
		m.free.Carve(e.Start, n)
		m.freeTotal -= n
		return Extent{Start: e.Start, Pages: n}, nil
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
		m.Release(Extent{Start: start + n, Pages: grow - n})
	}
	return Extent{Start: start, Pages: n}, nil
}

// Release returns an extent to the free pool, merging neighbours.
func (m *Manager) Release(e Extent) {
	if e.Pages <= 0 {
		return
	}
	m.freeTotal += e.Pages
	m.free.Release(e)
}

// ReleaseDeferred queues an extent for release at the next checkpoint
// commit.
func (m *Manager) ReleaseDeferred(e Extent) {
	if e.Pages > 0 {
		m.pending = append(m.pending, e)
		m.pendingTotal += e.Pages
	}
}

// PendingPages reports the total pages awaiting release.
func (m *Manager) PendingPages() int64 { return m.pendingTotal }

// PendingMark returns a cursor into the deferred-release queue; a
// checkpoint snapshots it at creation and releases only that prefix at
// commit. Extents deferred DURING the checkpoint may still be
// referenced by images the checkpoint already wrote, so they wait for
// the next one.
func (m *Manager) PendingMark() int { return len(m.pending) }

// CommitPendingPrefix releases the first n deferred extents.
func (m *Manager) CommitPendingPrefix(n int) {
	if n > len(m.pending) {
		n = len(m.pending)
	}
	for _, e := range m.pending[:n] {
		m.pendingTotal -= e.Pages
		m.Release(e)
	}
	m.pending = append(m.pending[:0], m.pending[n:]...)
}

// FreePages reports the total free pages inside the file.
func (m *Manager) FreePages() int64 { return m.freeTotal }
