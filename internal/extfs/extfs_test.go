package extfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/flash"
	"ptsbench/internal/sim"
)

func newTestFS(t *testing.T, opts Options) (*FS, *blockdev.Device) {
	t.Helper()
	cfg := flash.Config{
		LogicalBytes:  16 << 20,
		PageSize:      4096,
		PagesPerBlock: 32,
		Profile: flash.Profile{
			Name:       "fs-test",
			ReadFixed:  time.Microsecond,
			WriteFixed: time.Microsecond,
			ReadBW:     1 << 30,
			WriteBW:    1 << 30,
			HardwareOP: 0.25,
			EraseTime:  100 * time.Microsecond,
		},
	}
	ssd, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := blockdev.New(ssd)
	fs, err := Mount(dev, opts)
	if err != nil {
		t.Fatal(err)
	}
	return fs, dev
}

func TestCreateOpenRemove(t *testing.T) {
	fs, _ := newTestFS(t, Options{})
	f, err := fs.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("a"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate create: %v", err)
	}
	got, err := fs.Open("a")
	if err != nil || got != f {
		t.Fatalf("Open: %v", err)
	}
	if _, err := fs.Open("b"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Open missing: %v", err)
	}
	if err := fs.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("a"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double remove: %v", err)
	}
}

func TestList(t *testing.T) {
	fs, _ := newTestFS(t, Options{})
	for _, n := range []string{"c", "a", "b"} {
		if _, err := fs.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	got := fs.List()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("List = %v", got)
	}
}

func TestAppendAndRead(t *testing.T) {
	fs, dev := newTestFS(t, Options{})
	dev.EnableContentStore()
	f, _ := fs.Create("data")
	payload := make([]byte, 3*4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	if _, err := f.Append(0, 3, payload, int64(len(payload))); err != nil {
		t.Fatal(err)
	}
	if f.SizeBytes() != 3*4096 || f.SizePages() != 3 {
		t.Fatalf("size %d/%d pages", f.SizeBytes(), f.SizePages())
	}
	buf := make([]byte, 3*4096)
	if _, err := f.ReadAt(0, 0, 3, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, buf) {
		t.Fatal("read back mismatch")
	}
}

func TestWriteAtWithinFile(t *testing.T) {
	fs, dev := newTestFS(t, Options{})
	dev.EnableContentStore()
	f, _ := fs.Create("f")
	if err := f.Grow(4); err != nil {
		t.Fatal(err)
	}
	page := make([]byte, 4096)
	page[0] = 0xAB
	if _, err := f.WriteAt(0, 2, 1, page); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4096)
	if _, err := f.ReadAt(0, 2, 1, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Fatal("WriteAt data not read back")
	}
	if _, err := f.WriteAt(0, 4, 1, nil); err == nil {
		t.Fatal("write past EOF should fail")
	}
	if _, err := f.ReadAt(0, 3, 2, nil); err == nil {
		t.Fatal("read past EOF should fail")
	}
}

func TestByteSizeTracksPayload(t *testing.T) {
	fs, _ := newTestFS(t, Options{})
	f, _ := fs.Create("f")
	// 5000 bytes of payload in 2 pages: size is 5000, footprint 2 pages.
	if _, err := f.Append(0, 2, nil, 5000); err != nil {
		t.Fatal(err)
	}
	if f.SizeBytes() != 5000 {
		t.Fatalf("SizeBytes = %d, want 5000", f.SizeBytes())
	}
	if f.SizePages() != 2 {
		t.Fatalf("SizePages = %d, want 2", f.SizePages())
	}
}

func TestUsedPagesAccounting(t *testing.T) {
	fs, _ := newTestFS(t, Options{})
	base := fs.UsedPages()
	f, _ := fs.Create("f")
	if err := f.Grow(10); err != nil {
		t.Fatal(err)
	}
	if fs.UsedPages() != base+10 {
		t.Fatalf("UsedPages = %d, want %d", fs.UsedPages(), base+10)
	}
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if fs.UsedPages() != base {
		t.Fatalf("UsedPages after remove = %d, want %d", fs.UsedPages(), base)
	}
}

func TestNoSpace(t *testing.T) {
	fs, _ := newTestFS(t, Options{})
	f, _ := fs.Create("big")
	if err := f.Grow(fs.FreePages()); err != nil {
		t.Fatal(err)
	}
	g, _ := fs.Create("more")
	if err := g.Grow(1); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("expected ErrNoSpace, got %v", err)
	}
	// Failed grow must not corrupt accounting.
	if fs.FreePages() != 0 {
		t.Fatalf("FreePages = %d after failed grow", fs.FreePages())
	}
}

func TestNodiscardKeepsDeviceMapped(t *testing.T) {
	fs, dev := newTestFS(t, Options{}) // nodiscard default
	f, _ := fs.Create("f")
	if _, err := f.Append(0, 8, nil, 8*4096); err != nil {
		t.Fatal(err)
	}
	mapped := dev.SSD().MappedPages()
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if dev.SSD().MappedPages() != mapped {
		t.Fatal("nodiscard mount must not trim on remove")
	}
}

func TestDiscardMountTrims(t *testing.T) {
	fs, dev := newTestFS(t, Options{Discard: true})
	f, _ := fs.Create("f")
	if _, err := f.Append(0, 8, nil, 8*4096); err != nil {
		t.Fatal(err)
	}
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if dev.SSD().MappedPages() != 0 {
		t.Fatalf("discard mount should trim; %d pages still mapped",
			dev.SSD().MappedPages())
	}
}

func TestRotatingAllocatorSweepsLBARange(t *testing.T) {
	// Churning files through a half-full filesystem must touch (almost)
	// the whole partition: this is the ext4 behaviour behind the paper's
	// Fig 4 RocksDB curve.
	fs, dev := newTestFS(t, Options{})
	const filePages = 64
	// Keep 16 live files (~25% of the 4096-page device), churn 200 times.
	names := []string{}
	for i := 0; i < 200; i++ {
		name := string(rune('A'+i%26)) + string(rune('0'+i/26))
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Append(0, filePages, nil, filePages*4096); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		if len(names) > 16 {
			if err := fs.Remove(names[0]); err != nil {
				t.Fatal(err)
			}
			names = names[1:]
		}
	}
	if frac := dev.FractionLBAsWritten(); frac < 0.95 {
		t.Fatalf("file churn touched only %.0f%% of LBAs, want >95%%", frac*100)
	}
}

func TestGrowAfterFragmentation(t *testing.T) {
	fs, dev := newTestFS(t, Options{})
	dev.EnableContentStore()
	// Create interleaved files, remove every other one, then allocate a
	// file larger than any single hole.
	var files []*File
	for i := 0; i < 10; i++ {
		f, _ := fs.Create(string(rune('a' + i)))
		if err := f.Grow(100); err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	for i := 0; i < 10; i += 2 {
		if err := fs.Remove(string(rune('a' + i))); err != nil {
			t.Fatal(err)
		}
	}
	big, _ := fs.Create("big")
	if err := big.Grow(400); err != nil {
		t.Fatal(err)
	}
	if big.SizePages() != 400 {
		t.Fatalf("fragmented grow got %d pages", big.SizePages())
	}
	// Multi-extent read/write round trip across fragment boundaries.
	data := make([]byte, 400*4096)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if _, err := big.WriteAt(0, 0, 400, data); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 400*4096)
	if _, err := big.ReadAt(0, 0, 400, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, buf) {
		t.Fatal("fragmented round trip mismatch")
	}
}

func TestSyncWritesMetadata(t *testing.T) {
	fs, dev := newTestFS(t, Options{})
	before := dev.Counters().WriteOps
	end, err := fs.Sync(0)
	if err != nil {
		t.Fatal(err)
	}
	if end == 0 {
		t.Fatal("Sync should take time")
	}
	if dev.Counters().WriteOps != before+1 {
		t.Fatal("Sync should issue one metadata write")
	}
}

func TestRemovedFileRejectsGrow(t *testing.T) {
	fs, _ := newTestFS(t, Options{})
	f, _ := fs.Create("f")
	if err := fs.Remove("f"); err != nil {
		t.Fatal(err)
	}
	if err := f.Grow(1); err == nil {
		t.Fatal("grow on removed file should fail")
	}
}

// Property: the allocator never double-allocates and conserves pages
// through arbitrary alloc/free sequences.
func TestAllocatorConservationProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const total = 4096
		a := newAllocator(0, total)
		owned := map[int64]bool{} // page -> allocated
		var live []extent
		for _, op := range ops {
			if op%3 != 0 && len(live) > 0 { // free
				e := live[0]
				live = live[1:]
				a.release(e)
				for p := e.start; p < e.start+e.n; p++ {
					if !owned[p] {
						return false // double free
					}
					delete(owned, p)
				}
				continue
			}
			n := int64(op%64) + 1
			got, err := a.allocate(n)
			if err != nil {
				continue // pool exhausted is fine
			}
			var sum int64
			for _, e := range got {
				sum += e.n
				for p := e.start; p < e.start+e.n; p++ {
					if owned[p] {
						return false // double allocation
					}
					owned[p] = true
				}
				live = append(live, e)
			}
			if sum != n {
				return false
			}
		}
		return a.totalFree == total-int64(len(owned))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestFileExtentsCoverPages guards the invariants behind extfs's two
// panics through seeded Grow/Append/Remove churn on a fragmented
// filesystem: every file's extents add up to its page count, so mapRun
// resolves every offset below it, and the allocator's totalFree equals
// the pages its free set holds, so a bounds-checked allocate finds them.
func TestFileExtentsCoverPages(t *testing.T) {
	fs, _ := newTestFS(t, Options{})
	var live []*File
	maxExtents, noSpace := 0, 0
	check := func(step int) {
		t.Helper()
		var used int64
		for _, f := range live {
			var sum int64
			for _, e := range f.extents {
				sum += e.n
			}
			if sum != f.pages {
				t.Fatalf("step %d: %s has %d pages but extents cover %d", step, f.name, f.pages, sum)
			}
			for off := int64(0); off < f.pages; {
				_, n := f.mapRun(off, int(f.pages-off))
				off += int64(n)
			}
			used += f.pages
			maxExtents = max(maxExtents, len(f.extents))
		}
		checkAllocator(t, fs.alloc, nil)
		if used != fs.usedDataPages || used+fs.FreePages() != fs.CapacityPages() {
			t.Fatalf("step %d: files hold %d pages, usedDataPages %d, free %d, capacity %d",
				step, used, fs.usedDataPages, fs.FreePages(), fs.CapacityPages())
		}
	}
	rng := sim.NewRNG(5)
	for step := 0; step < 3000; step++ {
		n := int(rng.Uint64n(48) + 1)
		// Grow towards a full device, remove harder once it is nearly
		// full: the churn stays fragmented and keeps running out of space.
		removeBelow := uint64(2)
		if fs.FreePages() < 128 {
			removeBelow = 40
		}
		switch r := rng.Uint64n(100); {
		case len(live) == 0 || r >= 92:
			f, err := fs.Create(fmt.Sprintf("f%d", step))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, f)
		case r >= removeBelow:
			f := live[rng.Uint64n(uint64(len(live)))]
			pages := f.pages
			var err error
			if r%2 == 0 {
				err = f.Grow(int64(n))
			} else {
				_, err = f.Append(0, n, nil, int64(n)*4096)
			}
			if errors.Is(err, ErrNoSpace) && f.pages == pages {
				noSpace++
			} else if err != nil {
				t.Fatalf("step %d: grow %s by %d: %v (pages %d -> %d)", step, f.name, n, err, pages, f.pages)
			}
		default:
			i := rng.Uint64n(uint64(len(live)))
			if err := fs.Remove(live[i].name); err != nil {
				t.Fatal(err)
			}
			live = append(live[:i], live[i+1:]...)
		}
		check(step)
	}
	t.Logf("most fragmented file had %d extents, %d ErrNoSpace", maxExtents, noSpace)
	if maxExtents < 8 || noSpace == 0 {
		t.Fatalf("churn too tame: most fragmented file had %d extents, %d ErrNoSpace", maxExtents, noSpace)
	}
}

func TestMountTooSmall(t *testing.T) {
	fs, _ := newTestFS(t, Options{})
	_ = fs
	cfgDev, err := flash.NewDevice(flash.Config{
		LogicalBytes:  16 << 20,
		PageSize:      4096,
		PagesPerBlock: 32,
		Profile: flash.Profile{
			Name: "t", ReadBW: 1 << 30, WriteBW: 1 << 30, HardwareOP: 0.1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := blockdev.New(cfgDev)
	p, err := d.Partition(0, metaPages) // too small for data
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mount(p, Options{}); err == nil {
		t.Fatal("mount on tiny partition should fail")
	}
}
