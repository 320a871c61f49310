// Package extfs implements a minimal extent-based filesystem over a
// simulated block device. It exists because the filesystem's allocation
// policy and discard behaviour are load-bearing for the paper's results:
//
//   - The paper mounts ext4 with `nodiscard` (§3.5), so deleting a file
//     does NOT trim its blocks — the SSD keeps treating them as valid
//     until they are overwritten. This couples LSM file churn to garbage
//     collection.
//   - ext4's allocator spreads new allocations across the partition
//     rather than immediately reusing just-freed space; combined with
//     file churn this makes an LSM write to the whole LBA range over
//     time (Fig 4). extfs reproduces this with a rotating first-fit
//     allocator.
//
// extfs is page-granular: file sizes, I/O and allocation are in whole
// device pages.
package extfs

import (
	"errors"
	"fmt"
	"sort"

	"ptsbench/internal/arena"
	"ptsbench/internal/blockdev"
	"ptsbench/internal/freeset"
	"ptsbench/internal/sim"
)

// ErrNoSpace is returned when an allocation cannot be satisfied. The
// harness relies on it to reproduce the paper's "RocksDB runs out of
// space" outcome for the largest datasets (Fig 5/6).
var ErrNoSpace = errors.New("extfs: no space left on device")

// ErrNotExist is returned when opening or removing a missing file.
var ErrNotExist = errors.New("extfs: file does not exist")

// ErrExist is returned when creating a file that already exists.
var ErrExist = errors.New("extfs: file already exists")

// Options configure mount behaviour.
type Options struct {
	// Discard, when true, TRIMs freed extents on file deletion (like
	// mounting with -o discard). The paper's setup uses nodiscard, the
	// default here.
	Discard bool
}

// metaPages is the fixed metadata region at the start of the partition
// (superblock + inode table stand-in). Metadata writes are tiny and, per
// the paper's assumption (§3.3), negligible next to data traffic; we
// model them with one-page journal writes on sync.
const metaPages = 4

// FS is a mounted filesystem.
type FS struct {
	dev   blockdev.Dev
	ps    int // cached dev.PageSize()
	opts  Options
	files map[string]*File
	alloc *allocator
	// extents recycles files' extent lists: Grow grows a list through
	// it and Remove hands the array back, so a file-churning engine
	// (every LSM table is a file, split into many extents on an aged
	// partition) reuses the lists of the files it deleted.
	extents arena.Pool[extent]
	// usedDataPages counts pages allocated to live files.
	usedDataPages int64
	nextMetaPage  int64 // round-robin cursor within the metadata region
}

// Mount formats and mounts a filesystem over dev. (There is no persistent
// superblock to re-read: the simulation always starts from mkfs.)
func Mount(dev blockdev.Dev, opts Options) (*FS, error) {
	if dev.Pages() <= metaPages+1 {
		return nil, fmt.Errorf("extfs: device too small (%d pages)", dev.Pages())
	}
	fs := &FS{
		dev:   dev,
		ps:    dev.PageSize(),
		opts:  opts,
		files: make(map[string]*File),
		alloc: newAllocator(metaPages, dev.Pages()-metaPages),
	}
	return fs, nil
}

// PageSize returns the underlying device page size.
func (fs *FS) PageSize() int { return fs.ps }

// Device exposes the block device the filesystem is mounted on.
func (fs *FS) Device() blockdev.Dev { return fs.dev }

// CapacityPages returns the number of pages available for file data.
func (fs *FS) CapacityPages() int64 { return fs.dev.Pages() - metaPages }

// FreePages returns the number of unallocated data pages.
func (fs *FS) FreePages() int64 { return fs.alloc.totalFree }

// UsedPages returns pages allocated to live files plus metadata.
func (fs *FS) UsedPages() int64 { return fs.usedDataPages + metaPages }

// UsedBytes returns the total on-device footprint in bytes (page
// granular, as a real filesystem would report in df).
func (fs *FS) UsedBytes() int64 { return fs.UsedPages() * int64(fs.dev.PageSize()) }

// List returns the names of all files, sorted.
func (fs *FS) List() []string {
	names := make([]string, 0, len(fs.files))
	for name := range fs.files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Create creates an empty file.
func (fs *FS) Create(name string) (*File, error) {
	if _, ok := fs.files[name]; ok {
		return nil, fmt.Errorf("%w: %s", ErrExist, name)
	}
	f := &File{fs: fs, name: name}
	fs.files[name] = f
	return f, nil
}

// Open returns an existing file.
func (fs *FS) Open(name string) (*File, error) {
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return f, nil
}

// Remove deletes a file and frees its extents. Under nodiscard (the
// default) the device is NOT informed, so the SSD continues to see the
// old blocks as valid data.
func (fs *FS) Remove(name string) error {
	f, ok := fs.files[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	for _, e := range f.extents {
		fs.alloc.release(e)
		if fs.opts.Discard {
			fs.dev.Discard(e.start, int(e.n))
		}
	}
	fs.usedDataPages -= f.pages
	fs.extents.Put(f.extents)
	f.extents = nil
	f.pages = 0
	f.removed = true
	delete(fs.files, name)
	return nil
}

// Sync models a metadata commit: one page journal write into the metadata
// region. Engines call it on fsync-equivalent points. Like a real fsync
// it is also a durability barrier: everything written before it survives
// a power cut (see Barrier). Device failures — a refused journal write,
// a failing fsync — propagate as typed errors; like a real fsync error,
// nothing can be assumed durable when one is returned.
func (fs *FS) Sync(now sim.Duration) (sim.Duration, error) {
	p := fs.nextMetaPage
	fs.nextMetaPage = (fs.nextMetaPage + 1) % metaPages
	done, err := fs.dev.WriteErr(now, p, 1, nil)
	if err != nil {
		return now, err
	}
	if err := fs.Barrier(); err != nil {
		return done, err
	}
	return done, nil
}

// Barrier marks every write issued so far as durable on devices that
// distinguish acknowledged from durable writes; on plain devices it is
// a no-op. It costs no virtual time and no I/O — the write that makes
// a commit point durable is modeled by the caller (a WAL sync, a
// metadata journal write); the barrier only tells the device where the
// power-cut-survivable frontier is. A real backing file's failing
// fsync surfaces here as a typed error.
func (fs *FS) Barrier() error {
	return fs.dev.SyncErr()
}

// File is an open file backed by a list of extents.
type File struct {
	fs      *FS
	name    string
	extents []extent
	pages   int64 // allocated length in pages
	removed bool
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// SizePages returns the allocated size in pages.
func (f *File) SizePages() int64 { return f.pages }

// Extents returns a copy of the file's extent list (for tests and LBA
// analysis).
func (f *File) Extents() [][2]int64 {
	out := make([][2]int64, len(f.extents))
	for i, e := range f.extents {
		out[i] = [2]int64{e.start, e.n}
	}
	return out
}

// Grow extends the file by n pages, allocating extents. It returns
// ErrNoSpace if the allocation cannot be satisfied (the file is left
// unchanged in that case).
func (f *File) Grow(n int64) error {
	if f.removed {
		return fmt.Errorf("extfs: file %s is removed", f.name)
	}
	if n <= 0 {
		return nil
	}
	got, err := f.fs.alloc.allocate(n)
	if err != nil {
		return err
	}
	f.extents = append(f.fs.extents.Grow(f.extents, len(got)), got...)
	f.coalesceTail(len(got))
	f.pages += n
	f.fs.usedDataPages += n
	return nil
}

// coalesceTail merges the newly appended extents with their predecessors
// when physically contiguous, keeping the extent list compact.
func (f *File) coalesceTail(added int) {
	for i := len(f.extents) - added; i < len(f.extents) && i > 0; i++ {
		prev, cur := &f.extents[i-1], f.extents[i]
		if prev.start+prev.n == cur.start {
			prev.n += cur.n
			f.extents = append(f.extents[:i], f.extents[i+1:]...)
			i--
		}
	}
}

// Append appends n pages of data to the file starting at virtual time
// now. data may be nil (accounting-only mode) or exactly n pages long.
func (f *File) Append(now sim.Duration, n int, data []byte) (sim.Duration, error) {
	if n <= 0 {
		return now, nil
	}
	startPage := f.pages
	if err := f.Grow(int64(n)); err != nil {
		return now, err
	}
	return f.writePages(now, startPage, n, data)
}

// WriteAt overwrites n pages at page offset off (which must be within the
// allocated size).
func (f *File) WriteAt(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error) {
	if off < 0 || off+int64(n) > f.pages {
		return now, fmt.Errorf("extfs: write [%d,+%d) beyond EOF %d of %s", off, n, f.pages, f.name)
	}
	return f.writePages(now, off, n, data)
}

// ReadAt reads n pages at page offset off into buf (which may be nil).
func (f *File) ReadAt(now sim.Duration, off int64, n int, buf []byte) (sim.Duration, error) {
	if off < 0 || off+int64(n) > f.pages {
		return now, fmt.Errorf("extfs: read [%d,+%d) beyond EOF %d of %s", off, n, f.pages, f.name)
	}
	ps := f.fs.ps
	for n > 0 {
		start, count := f.mapRun(off, n)
		var sub []byte
		if buf != nil {
			sub = buf[:count*ps]
			buf = buf[count*ps:]
		}
		var err error
		now, err = f.fs.dev.ReadErr(now, start, count, sub)
		if err != nil {
			return now, err
		}
		off += int64(count)
		n -= count
	}
	return now, nil
}

// writePages performs the device writes for a page run, splitting along
// extent boundaries. A device failure mid-run leaves earlier pages
// written — the caller decides whether the partial state is recoverable
// (engines treat it like a torn write and rely on recovery).
func (f *File) writePages(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error) {
	ps := f.fs.ps
	for n > 0 {
		start, count := f.mapRun(off, n)
		var sub []byte
		if data != nil {
			sub = data[:count*ps]
			data = data[count*ps:]
		}
		var err error
		now, err = f.fs.dev.WriteErr(now, start, count, sub)
		if err != nil {
			return now, err
		}
		off += int64(count)
		n -= count
	}
	return now, nil
}

// mapRun translates file page offset off into a device page address and
// the number of contiguous pages available there (bounded by n).
//
// Invariant (TestFileExtentsCoverPages): f.pages equals the pages in
// f.extents and every caller checks off < f.pages first, so the panic
// cannot fire — no device fault reaches it, only a bug in this file.
func (f *File) mapRun(off int64, n int) (devPage int64, count int) {
	var base int64
	for _, e := range f.extents {
		if off < base+e.n {
			within := off - base
			avail := e.n - within
			if int64(n) < avail {
				avail = int64(n)
			}
			return e.start + within, int(avail)
		}
		base += e.n
	}
	panic(fmt.Sprintf("extfs: offset %d beyond mapped extents of %s", off, f.name))
}

// extent is a contiguous run of device pages.
type extent struct {
	start, n int64
}

// allocator manages free extents with a rotating first-fit policy: each
// allocation scans forward from a cursor that only wraps at the end of
// the partition. Freed space behind the cursor is therefore not reused
// until the cursor wraps — which makes a file-churning workload (an LSM)
// sweep the entire LBA range, as ext4 does in the paper's Fig 4.
type allocator struct {
	free      freeset.Set
	totalFree int64
	cursor    int64
	base      int64 // first allocatable page
	limit     int64 // one past last allocatable page
	// scratch backs allocate's result slice; the result is only valid
	// until the next allocate call (every caller copies immediately).
	scratch []extent
}

func newAllocator(base, n int64) *allocator {
	a := &allocator{cursor: base, base: base, limit: base + n}
	a.release(extent{start: base, n: n})
	return a
}

// allocate returns extents totalling n pages, or ErrNoSpace (leaving the
// allocator unchanged) when free space is insufficient. The returned
// slice aliases the allocator's scratch buffer and is valid only until
// the next allocate call.
//
// Invariant (TestAllocatorMatchesReference, every step): totalFree
// equals the pages in the free set, so the panic below cannot fire.
func (a *allocator) allocate(n int64) ([]extent, error) {
	if n > a.totalFree {
		return nil, fmt.Errorf("%w (want %d pages, have %d)", ErrNoSpace, n, a.totalFree)
	}
	out := a.scratch[:0]
	wrapped := false
	for remaining := n; remaining > 0; {
		e, ok := a.free.After(a.cursor)
		if !ok {
			if wrapped {
				// Should be impossible: totalFree said there was space.
				panic("extfs: allocator inconsistency")
			}
			a.cursor = a.base
			wrapped = true
			continue
		}
		start := max(e.Start, a.cursor)
		take := min(e.Start+e.Pages-start, remaining)
		out = append(out, extent{start: start, n: take})
		a.free.Carve(start, take)
		a.totalFree -= take
		remaining -= take
		a.cursor = start + take
		if a.cursor >= a.limit {
			a.cursor = a.base
			wrapped = true
		}
	}
	a.scratch = out
	return out, nil
}

// release returns an extent to the free pool, merging neighbours.
func (a *allocator) release(e extent) {
	a.free.Release(freeset.Extent{Start: e.start, Pages: e.n})
	a.totalFree += e.n
}
