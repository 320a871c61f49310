package blockdev

import (
	"bytes"
	"testing"
	"time"

	"ptsbench/internal/deverr"
	"ptsbench/internal/flash"
	"ptsbench/internal/sim"
)

func newTestDev(t *testing.T) *Device {
	t.Helper()
	cfg := flash.Config{
		LogicalBytes:  16 << 20,
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
	mustWrite(t, d, 0, 0, 4, nil)
	d.ResetInstrumentation()
	if d.Counters() != (Counters{}) {
		t.Fatal("counters not reset")
	}
	if CombinedFractionLBAsWritten([]Host{d}) != 0 {
		t.Fatal("histogram not reset")
	}
}

func TestPartitionIsolation(t *testing.T) {
	d := newTestDev(t)
	p, err := d.Partition(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if p.Pages() != 200 || p.PageSize() != 4096 {
		t.Fatal("partition geometry wrong")
	}
	mustWrite(t, p, 0, 0, 1, nil)
	// The write must land inside the device and be recorded.
	if CombinedFractionLBAsWritten([]Host{d}) == 0 {
		t.Fatal("partition write not recorded")
	}
	if d.Counters().WriteOps != 1 {
		t.Fatal("partition write not counted on parent device")
	}
	// Out-of-range partition I/O is a bounds error, even inside the
	// parent device, and reaches nothing.
	wantBounds(t, "partition overflow", p.WriteErr, 199, 2, nil)
	if d.Counters().WriteOps != 1 {
		t.Fatal("refused partition write reached the parent device")
	}
}

func TestPartitionErrors(t *testing.T) {
	d := newTestDev(t)
	if _, err := d.Partition(-1, 10); err == nil {
		t.Fatal("negative start should fail")
	}
	if _, err := d.Partition(0, d.Pages()+1); err == nil {
		t.Fatal("oversized partition should fail")
	}
	if _, err := d.Partition(0, 0); err == nil {
		t.Fatal("empty partition should fail")
	}
}

func TestPartitionDiscard(t *testing.T) {
	d := newTestDev(t)
	p, _ := d.Partition(50, 100)
	mustWrite(t, p, 0, 10, 5, nil)
	if d.SSD().MappedPages() != 5 {
		t.Fatalf("mapped %d, want 5", d.SSD().MappedPages())
	}
	p.Discard(10, 5)
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
