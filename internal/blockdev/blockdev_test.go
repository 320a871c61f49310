package blockdev

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"ptsbench/internal/deverr"
	"ptsbench/internal/flash"
	"ptsbench/internal/sim"
)

func newTestDev(t *testing.T) *Device { return newTestDevOf(t, 16<<20) }

func newTestDevOf(t *testing.T, logicalBytes int64) *Device {
	t.Helper()
	cfg := flash.Config{
		LogicalBytes:  logicalBytes,
		PageSize:      4096,
		PagesPerBlock: 32,
		Profile: flash.Profile{
			Name:       "bt",
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
	return New(ssd)
}

func TestCounters(t *testing.T) {
	d := newTestDev(t)
	mustWrite(t, d, 0, 0, 3, nil)
	mustRead(t, d, 0, 0, 2, nil)
	c := d.Counters()
	if c.BytesWritten != 3*4096 || c.WriteOps != 1 {
		t.Fatalf("write counters wrong: %+v", c)
	}
	if c.BytesRead != 2*4096 || c.ReadOps != 1 {
		t.Fatalf("read counters wrong: %+v", c)
	}
	d2 := d.Counters().Sub(c)
	if d2 != (Counters{}) {
		t.Fatalf("Sub of equal counters not zero: %+v", d2)
	}
}

func TestContentStoreRoundTrip(t *testing.T) {
	d := newTestDev(t)
	d.EnableContentStore()
	data := make([]byte, 2*4096)
	for i := range data {
		data[i] = byte(i % 251)
	}
	mustWrite(t, d, 0, 7, 2, data)
	buf := make([]byte, 2*4096)
	mustRead(t, d, 0, 7, 2, buf)
	if !bytes.Equal(data, buf) {
		t.Fatal("content round trip mismatch")
	}
	// Unwritten pages read as zeros.
	zero := make([]byte, 4096)
	buf1 := make([]byte, 4096)
	for i := range buf1 {
		buf1[i] = 0xFF
	}
	mustRead(t, d, 0, 100, 1, buf1)
	if !bytes.Equal(buf1, zero) {
		t.Fatal("unwritten page should read zero")
	}
}

func TestContentStoreOverwriteReusesBuffer(t *testing.T) {
	d := newTestDev(t)
	d.EnableContentStore()
	data := make([]byte, 4096)
	mustWrite(t, d, 0, 3, 1, data) // first write allocates the retained page
	for i := range data {
		data[i] = 0x5A
	}
	// Steady-state overwrites must reuse it: zero allocations per op.
	allocs := testing.AllocsPerRun(100, func() {
		d.WriteErr(0, 3, 1, data)
	})
	if allocs != 0 {
		t.Fatalf("content-store overwrite allocates %v/op, want 0", allocs)
	}
	buf := make([]byte, 4096)
	mustRead(t, d, 0, 3, 1, buf)
	if !bytes.Equal(buf, data) {
		t.Fatal("overwrite content lost")
	}
}

func TestContentStoreDisabledIgnoresData(t *testing.T) {
	d := newTestDev(t)
	data := make([]byte, 4096)
	data[0] = 42
	mustWrite(t, d, 0, 0, 1, data)
	buf := make([]byte, 4096)
	buf[0] = 99
	mustRead(t, d, 0, 0, 1, buf)
	if buf[0] != 99 {
		t.Fatal("disabled content store should not touch buffers")
	}
	if d.ContentEnabled() {
		t.Fatal("ContentEnabled should be false")
	}
}

func TestDiscardClearsContent(t *testing.T) {
	d := newTestDev(t)
	d.EnableContentStore()
	data := make([]byte, 4096)
	data[5] = 7
	mustWrite(t, d, 0, 3, 1, data)
	d.Discard(3, 1)
	buf := make([]byte, 4096)
	mustRead(t, d, 0, 3, 1, buf)
	if buf[5] != 0 {
		t.Fatal("discarded page should read zero")
	}
	if d.SSD().MappedPages() != 0 {
		t.Fatal("discard should unmap flash pages")
	}
}

func TestWriteHistogramAndCDF(t *testing.T) {
	d := newTestDev(t)
	d.KeepWriteHist()
	// Write the first half of the device once; CDF should reach 1.0 at
	// x=0.5 and the fraction of LBAs written should be 0.5.
	half := d.Pages() / 2
	for p := int64(0); p < half; p++ {
		mustWrite(t, d, 0, p, 1, nil)
	}
	if got := CombinedFractionLBAsWritten([]Host{d}); got < 0.49 || got > 0.51 {
		t.Fatalf("fraction of LBAs written = %v, want 0.5", got)
	}
	cdf := CombinedWriteCDF([]Host{d}, 100)
	if cdf[0] != 0 {
		t.Fatalf("cdf[0] = %v, want 0", cdf[0])
	}
	if cdf[50] < 0.999 {
		t.Fatalf("cdf at 0.5 = %v, want 1.0 (all writes in first half)", cdf[50])
	}
	if cdf[100] < 0.999 {
		t.Fatalf("cdf at 1.0 = %v, want 1.0", cdf[100])
	}
}

func TestWriteCDFSkewed(t *testing.T) {
	d := newTestDev(t)
	d.KeepWriteHist()
	// 90% of writes to 10% of pages.
	tenth := d.Pages() / 10
	for rep := 0; rep < 9; rep++ {
		for p := int64(0); p < tenth; p++ {
			mustWrite(t, d, 0, p, 1, nil)
		}
	}
	for p := tenth; p < tenth*2; p++ {
		mustWrite(t, d, 0, p, 1, nil)
	}
	cdf := CombinedWriteCDF([]Host{d}, 100)
	if cdf[10] < 0.85 {
		t.Fatalf("cdf at 0.1 = %v, want ~0.9 for skewed writes", cdf[10])
	}
}

func TestWriteCDFEmpty(t *testing.T) {
	d := newTestDev(t)
	cdf := CombinedWriteCDF([]Host{d}, 10)
	for _, v := range cdf {
		if v != 0 {
			t.Fatal("CDF of unwritten device should be all zeros")
		}
	}
}

// TestCombinedOverShards: several devices' histograms merge over the
// union of their LBA spaces, as one device of the combined size would
// show the same traffic.
func TestCombinedOverShards(t *testing.T) {
	a, b := newTestDev(t), newTestDev(t)
	a.KeepWriteHist()
	b.KeepWriteHist()
	quarter := a.Pages() / 4
	// a: its first quarter written three times; b: its first quarter once.
	for rep := 0; rep < 3; rep++ {
		mustWrite(t, a, 0, 0, int(quarter), nil)
	}
	mustWrite(t, b, 0, 0, int(quarter), nil)
	devs := []Host{a, b}
	if got := CombinedFractionLBAsWritten(devs); got != 0.25 {
		t.Fatalf("fraction of LBAs written = %v, want 0.25", got)
	}
	cdf := CombinedWriteCDF(devs, 8)
	// The most-written eighth of the union is a's quarter: 3 of 4 writes.
	if cdf[1] != 0.75 || cdf[2] != 1 || cdf[8] != 1 {
		t.Fatalf("cdf = %v, want 0.75 at 1/8 and 1 from 2/8", cdf)
	}
	if single := CombinedWriteCDF([]Host{a}, 8); single[2] != 1 || single[1] != 0.5 {
		t.Fatalf("single-device cdf = %v, want 0.5 at 1/8 and 1 from 2/8", single)
	}
}

func TestResetInstrumentation(t *testing.T) {
	d := newTestDev(t)
	d.KeepWriteHist()
	mustWrite(t, d, 0, 0, 4, nil)
	if CombinedFractionLBAsWritten([]Host{d}) == 0 {
		t.Fatal("kept histogram counted nothing")
	}
	d.ResetInstrumentation()
	if d.Counters() != (Counters{}) {
		t.Fatal("counters not reset")
	}
	if CombinedFractionLBAsWritten([]Host{d}) != 0 {
		t.Fatal("histogram not reset")
	}
}

// TestPartitionIsolation: a partition shows the host only its pages;
// I/O beyond it is a bounds error even inside the flash device and
// reaches nothing, while the histogram keeps spanning the device.
func TestPartitionIsolation(t *testing.T) {
	d := newTestDev(t)
	whole := d.Pages()
	if err := d.Partition(200); err != nil {
		t.Fatal(err)
	}
	if d.Pages() != 200 || d.PageSize() != 4096 {
		t.Fatal("partition geometry wrong")
	}
	d.KeepWriteHist()
	if int64(len(d.WriteHist())) != whole {
		t.Fatalf("histogram spans %d pages, want the device's %d", len(d.WriteHist()), whole)
	}
	mustWrite(t, d, 0, 199, 1, nil)
	if d.WriteHist()[199] != 1 || d.Counters().WriteOps != 1 {
		t.Fatal("partition write not recorded")
	}
	wantBounds(t, "partition overflow", d.WriteErr, 199, 2, nil)
	wantBounds(t, "read past the partition", d.ReadErr, 200, 1, nil)
	if d.Counters().WriteOps != 1 || d.Counters().ReadOps != 0 || d.SSD().MappedPages() != 1 {
		t.Fatal("refused partition I/O reached the device")
	}
}

// TestWriteHistOnlyWhenKept: a device keeps no histogram until asked,
// counts the same iostat traffic either way, starts a kept histogram
// empty, keeps it through a reset, and allocates no per-page state.
func TestWriteHistOnlyWhenKept(t *testing.T) {
	off, kept := newTestDev(t), newTestDev(t)
	kept.KeepWriteHist()
	for _, d := range []*Device{off, kept} {
		mustWrite(t, d, 0, 3, 2, nil)
		mustWrite(t, d, 0, 4, 1, nil)
		mustRead(t, d, 0, 0, 5, nil)
		d.Discard(3, 1)
	}
	if off.WriteHist() != nil {
		t.Fatalf("unkept device has a %d-page histogram", len(off.WriteHist()))
	}
	if off.Counters() != kept.Counters() {
		t.Fatalf("counters differ: unkept %+v, kept %+v", off.Counters(), kept.Counters())
	}
	if h := kept.WriteHist(); int64(len(h)) != kept.Pages() || h[3] != 1 || h[4] != 2 || h[5] != 0 {
		t.Fatal("kept histogram miscounted")
	}

	off.KeepWriteHist()
	if h := off.WriteHist(); int64(len(h)) != off.Pages() || CombinedFractionLBAsWritten([]Host{off}) != 0 {
		t.Fatal("a histogram kept after writes must start empty")
	}
	kept.ResetInstrumentation()
	if h := kept.WriteHist(); int64(len(h)) != kept.Pages() || h[4] != 0 {
		t.Fatal("reset must zero a kept histogram and keep it")
	}
	mustWrite(t, kept, 0, 4, 1, nil)
	if kept.WriteHist()[4] != 1 {
		t.Fatal("kept histogram stopped counting after a reset")
	}

	const pages = 262144 // 1 GiB of 4 KiB pages
	ssd := newTestDevOf(t, pages*4096).SSD()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := New(ssd)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<10 {
		t.Fatalf("New over %d pages allocated %d B, want < 4 KiB", d.Pages(), got)
	}
}

// BenchmarkCountWrite is the per-page cost of the write histogram:
// random single-page writes over a meter the size of a scale-32 cell's
// drive, kept and off.
func BenchmarkCountWrite(b *testing.B) {
	const pages = 3276800
	offs := make([]int64, 1<<16)
	rng := sim.NewRNG(1)
	for i := range offs {
		offs[i] = int64(rng.Uint64n(pages))
	}
	for _, keep := range []bool{true, false} {
		name := "off"
		if keep {
			name = "kept"
		}
		b.Run(name, func(b *testing.B) {
			m := NewMeter(pages)
			if keep {
				m.KeepWriteHist()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.CountWrite(offs[i&(len(offs)-1)], 1, 4096)
			}
		})
	}
}

func TestPartitionErrors(t *testing.T) {
	d := newTestDev(t)
	if err := d.Partition(d.Pages() + 1); err == nil {
		t.Fatal("oversized partition should fail")
	}
	if err := d.Partition(0); err == nil {
		t.Fatal("empty partition should fail")
	}
	if err := d.Partition(-1); err == nil {
		t.Fatal("negative partition should fail")
	}
}

func TestPartitionDiscard(t *testing.T) {
	d := newTestDev(t)
	if err := d.Partition(100); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, d, 0, 10, 5, nil)
	if d.SSD().MappedPages() != 5 {
		t.Fatalf("mapped %d, want 5", d.SSD().MappedPages())
	}
	d.Discard(10, 5)
	if d.SSD().MappedPages() != 0 {
		t.Fatal("partition discard failed")
	}
}

// TestMisalignedBuffersPanic: a short buffer or a page run beyond the
// device is a bounds error from WriteErr/ReadErr, and only the WriteAt
// wrapper kept for benchmark/ turns it into a panic.
func TestMisalignedBuffersPanic(t *testing.T) {
	d := newTestDev(t)
	d.EnableContentStore()
	short := make([]byte, 4096) // 1 page for a 2-page I/O
	wantBounds(t, "short write buffer", d.WriteErr, 0, 2, short)
	wantBounds(t, "short read buffer", d.ReadErr, 0, 2, short)
	wantBounds(t, "write past the end", d.WriteErr, d.Pages(), 1, nil)
	wantBounds(t, "read before the start", d.ReadErr, -1, 1, nil)
	if c := d.Counters(); c != (Counters{}) {
		t.Fatalf("refused I/O was counted: %+v", c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("WriteAt should panic on a short buffer")
		}
	}()
	d.WriteAt(0, 0, 2, short)
}

func TestTimePropagation(t *testing.T) {
	d := newTestDev(t)
	done := mustWrite(t, d, time.Second, 0, 1, nil)
	if done <= time.Second {
		t.Fatalf("completion %v should be after submission", done)
	}
}

func mustWrite(t *testing.T, d Dev, now sim.Duration, off int64, n int, data []byte) sim.Duration {
	t.Helper()
	done, err := d.WriteErr(now, off, n, data)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

func mustRead(t *testing.T, d Dev, now sim.Duration, off int64, n int, buf []byte) sim.Duration {
	t.Helper()
	done, err := d.ReadErr(now, off, n, buf)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// wantBounds issues one I/O through io and requires a deverr.KindBounds
// error that leaves the clock where it was.
func wantBounds(t *testing.T, what string, io func(sim.Duration, int64, int, []byte) (sim.Duration, error), off int64, n int, buf []byte) {
	t.Helper()
	done, err := io(time.Second, off, n, buf)
	if de, ok := deverr.As(err); !ok || de.Kind != deverr.KindBounds {
		t.Fatalf("%s: got %v, want a %s error", what, err, deverr.KindBounds)
	}
	if done != time.Second {
		t.Fatalf("%s: a refused I/O moved the clock to %v", what, done)
	}
}
