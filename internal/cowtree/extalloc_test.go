package cowtree

import (
	"testing"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/extfs"
	"ptsbench/internal/flash"
)

func testFile(t *testing.T) *extfs.File {
	t.Helper()
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  16 << 20,
		PageSize:      4096,
		PagesPerBlock: 32,
		Profile: flash.Profile{
			Name:       "ea-test",
			ReadFixed:  5 * time.Microsecond,
			WriteFixed: 5 * time.Microsecond,
			ReadBW:     2 << 30,
			WriteBW:    1 << 30,
			HardwareOP: 0.25,
			EraseTime:  200 * time.Microsecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := extfs.Mount(blockdev.New(ssd), extfs.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("ea-test")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAllocReleaseReuse(t *testing.T) {
	m := newExtentAllocator(testFile(t), 64)
	a, err := m.alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Start == b.Start {
		t.Fatal("overlapping allocations")
	}
	m.release(a)
	c, err := m.alloc(4)
	if err != nil {
		t.Fatal(err)
	}
	if c.Start != a.Start {
		t.Fatalf("lowest-first reuse broken: got %d, want %d", c.Start, a.Start)
	}
	// Free-list merging: release adjacent extents and allocate across.
	m.release(c)
	m.release(b)
	d, err := m.alloc(16)
	if err != nil {
		t.Fatal(err)
	}
	if d.Start != a.Start {
		t.Fatalf("merge failed: got %d", d.Start)
	}
}

func TestDeferredReleaseWaitsForCommit(t *testing.T) {
	m := newExtentAllocator(testFile(t), 64)
	a, err := m.alloc(8)
	if err != nil {
		t.Fatal(err)
	}
	m.releaseDeferred(a)
	if m.pendingTotal != 8 {
		t.Fatalf("pending %d, want 8", m.pendingTotal)
	}
	mark := m.pendingMark()
	b, _ := m.alloc(8)
	if b.Start == a.Start {
		t.Fatal("deferred extent reused before commit")
	}
	// An extent deferred after the mark must survive the commit.
	m.releaseDeferred(b)
	m.commitPendingPrefix(mark)
	if m.pendingTotal != 8 {
		t.Fatalf("post-commit pending %d, want 8 (b still deferred)", m.pendingTotal)
	}
	c, _ := m.alloc(8)
	if c.Start != a.Start {
		t.Fatalf("committed extent not reused: got %d, want %d", c.Start, a.Start)
	}
}
