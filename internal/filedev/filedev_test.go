package filedev

import (
	"bytes"
	"path/filepath"
	"testing"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/deverr"
	"ptsbench/internal/sim"
)

func open(t *testing.T, cfg Config) *Dev {
	t.Helper()
	if cfg.Path == "" {
		cfg.Path = filepath.Join(t.TempDir(), "dev.img")
	}
	if cfg.Pages == 0 {
		cfg.Pages = 64
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func page(d *Dev, fill byte) []byte {
	b := make([]byte, d.PageSize())
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestRoundTrip(t *testing.T) {
	d := open(t, Config{})
	now := mustWrite(t, d, 0, 3, 1, page(d, 0xAB))
	if now <= 0 {
		t.Fatalf("write completion %v not after submit", now)
	}
	buf := make([]byte, d.PageSize())
	mustRead(t, d, now, 3, 1, buf)
	if !bytes.Equal(buf, page(d, 0xAB)) {
		t.Fatalf("read back wrong bytes: %x...", buf[:8])
	}
	// Unwritten pages read as zeros, like a fresh simulated device.
	mustRead(t, d, now, 9, 1, buf)
	if !bytes.Equal(buf, make([]byte, d.PageSize())) {
		t.Fatalf("unwritten page not zero: %x...", buf[:8])
	}
	// Accounting-only (nil data) writes zero the range.
	mustWrite(t, d, now, 3, 1, nil)
	mustRead(t, d, now, 3, 1, buf)
	if !bytes.Equal(buf, make([]byte, d.PageSize())) {
		t.Fatalf("nil-data write did not zero the page: %x...", buf[:8])
	}
}

func TestCountersAndHist(t *testing.T) {
	d := open(t, Config{})
	d.KeepWriteHist()
	ps := int64(d.PageSize())
	mustWrite(t, d, 0, 0, 2, nil)
	mustWrite(t, d, 0, 1, 1, nil)
	mustRead(t, d, 0, 0, 3, nil)
	d.Discard(1, 1)
	got := d.Counters()
	want := blockdev.Counters{
		BytesWritten: 3 * ps, BytesRead: 3 * ps,
		WriteOps: 2, ReadOps: 1,
		DiscardOps: 1, PagesDiscarded: 1,
	}
	if got != want {
		t.Fatalf("counters = %+v, want %+v", got, want)
	}
	hist := d.WriteHist()
	if hist[0] != 1 || hist[1] != 2 || hist[2] != 0 {
		t.Fatalf("writeHist[0:3] = %v, want [1 2 0]", hist[:3])
	}
	d.ResetInstrumentation()
	if d.Counters() != (blockdev.Counters{}) || d.WriteHist()[1] != 0 || d.Fsyncs() != 0 {
		t.Fatalf("ResetInstrumentation left state behind")
	}
}

func TestFixedCostsDeterministic(t *testing.T) {
	run := func() []sim.Duration {
		d := open(t, Config{})
		var ts []sim.Duration
		now := sim.Duration(0)
		for i := 0; i < 5; i++ {
			now = mustWrite(t, d, now, int64(i), 1, page(d, byte(i)))
			ts = append(ts, now)
		}
		mustSync(t, d)
		now = mustRead(t, d, now, 0, 4, nil)
		ts = append(ts, now)
		return ts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timing diverged at op %d: %v vs %v", i, a[i], b[i])
		}
	}
	// The fixed write cost is op + pages*page.
	if want := DefaultWriteOpCost + DefaultWritePageCost; a[0] != want {
		t.Fatalf("first write completed at %v, want %v", a[0], want)
	}
	// The barrier's sync cost lands on the op after it.
	gap := a[5] - a[4]
	if want := DefaultSyncCost + DefaultReadOpCost + 4*DefaultReadPageCost; gap != want {
		t.Fatalf("post-barrier read cost %v, want %v", gap, want)
	}
}

func TestDisciplines(t *testing.T) {
	t.Run("none", func(t *testing.T) {
		d := open(t, Config{Fsync: DisciplineNone})
		mustWrite(t, d, 0, 0, 1, nil)
		mustSync(t, d)
		if d.Fsyncs() != 0 {
			t.Fatalf("DisciplineNone fsynced %d times", d.Fsyncs())
		}
	})
	t.Run("barrier", func(t *testing.T) {
		d := open(t, Config{Fsync: DisciplineBarrier})
		mustWrite(t, d, 0, 0, 1, nil)
		if d.Fsyncs() != 0 {
			t.Fatalf("fsync before barrier")
		}
		mustSync(t, d)
		mustSync(t, d)
		if d.Fsyncs() != 2 {
			t.Fatalf("barrier fsyncs = %d, want 2", d.Fsyncs())
		}
	})
	t.Run("always", func(t *testing.T) {
		d := open(t, Config{Fsync: DisciplineAlways})
		mustWrite(t, d, 0, 0, 1, nil)
		mustWrite(t, d, 0, 1, 1, nil)
		if d.Fsyncs() != 2 {
			t.Fatalf("always fsyncs = %d, want 2", d.Fsyncs())
		}
		mustSync(t, d) // redundant under always; must not double-count
		if d.Fsyncs() != 2 {
			t.Fatalf("SyncErr fsynced under DisciplineAlways")
		}
	})
}

func TestParseDiscipline(t *testing.T) {
	for s, want := range map[string]Discipline{
		"": DisciplineBarrier, "barrier": DisciplineBarrier,
		"none": DisciplineNone, "always": DisciplineAlways,
	} {
		got, err := ParseDiscipline(s)
		if err != nil || got != want {
			t.Fatalf("ParseDiscipline(%q) = %v, %v", s, got, err)
		}
		if s != "" && got.String() != s {
			t.Fatalf("String() = %q, want %q", got.String(), s)
		}
	}
	if _, err := ParseDiscipline("flush"); err == nil {
		t.Fatalf("ParseDiscipline accepted junk")
	}
}

func TestDiscardZeroes(t *testing.T) {
	d := open(t, Config{})
	mustWrite(t, d, 0, 2, 2, append(page(d, 0x11), page(d, 0x22)...))
	d.Discard(2, 2)
	buf := make([]byte, 2*d.PageSize())
	mustRead(t, d, 0, 2, 2, buf)
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatalf("discarded range not zero")
	}
}

func TestCloseReopenPreservesContent(t *testing.T) {
	d := open(t, Config{})
	now := mustWrite(t, d, 0, 5, 1, page(d, 0x7E))
	mustSync(t, d)
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Reopen(); err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	buf := make([]byte, d.PageSize())
	mustRead(t, d, now, 5, 1, buf)
	if !bytes.Equal(buf, page(d, 0x7E)) {
		t.Fatalf("content lost across close/reopen")
	}
}

func TestOpenTruncatesPreviousImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	d := open(t, Config{Path: path})
	mustWrite(t, d, 0, 0, 1, page(d, 0xFF))
	d.Close()
	d2 := open(t, Config{Path: path})
	buf := make([]byte, d2.PageSize())
	mustRead(t, d2, 0, 0, 1, buf)
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatalf("Open did not present a fresh zero device")
	}
}

// TestNilBufIOSpansChunks: nil-data writes and nil-buf reads go through
// the bounce buffer in chunks; a run several chunks long must zero (and
// read) every page of it, including after a read has dirtied the buffer.
func TestNilBufIOSpansChunks(t *testing.T) {
	d := open(t, Config{Pages: 3*bounceBytes/4096 + 5})
	n := int(d.Pages()) - 2
	data := bytes.Repeat([]byte{0xAB}, n*d.PageSize())
	now := mustWrite(t, d, 0, 1, n, data)
	now = mustRead(t, d, now, 1, n, nil)
	now = mustWrite(t, d, now, 1, n, nil)
	buf := make([]byte, n*d.PageSize())
	mustRead(t, d, now, 1, n, buf)
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatalf("nil-data write of %d pages left non-zero bytes", n)
	}
}

func TestMeasuredMode(t *testing.T) {
	d := open(t, Config{Measure: true})
	t0 := sim.Duration(time.Hour)
	done := mustWrite(t, d, t0, 0, 1, page(d, 1))
	if done <= t0 {
		t.Fatalf("measured write completion %v not after submit %v", done, t0)
	}
	mustSync(t, d)
	done2 := mustRead(t, d, done, 0, 1, nil)
	if done2 <= done {
		t.Fatalf("measured read completion %v not after %v", done2, done)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{Pages: 8}); err == nil {
		t.Fatalf("Open accepted empty path")
	}
	if _, err := Open(Config{Path: filepath.Join(t.TempDir(), "x"), Pages: 0}); err == nil {
		t.Fatalf("Open accepted zero pages")
	}
	if _, err := Open(Config{Path: filepath.Join(t.TempDir(), "x"), Pages: 8, PageSize: 1000}); err == nil {
		t.Fatalf("Open accepted unaligned page size")
	}
}

// TestRangeErrors: a page run beyond the file or a short buffer is a
// typed bounds error that charges no time and touches no counter.
func TestRangeErrors(t *testing.T) {
	d := open(t, Config{})
	short := make([]byte, d.PageSize())
	for name, io := range map[string]func() (sim.Duration, error){
		"write past the end": func() (sim.Duration, error) { return d.WriteErr(7, d.Pages(), 1, nil) },
		"short write buffer": func() (sim.Duration, error) { return d.WriteErr(7, 0, 2, short) },
		"short read buffer":  func() (sim.Duration, error) { return d.ReadErr(7, 0, 2, short) },
	} {
		done, err := io()
		if de, ok := deverr.As(err); !ok || de.Kind != deverr.KindBounds || done != 7 {
			t.Errorf("%s: done %v, err %v; want 7 and a %s error", name, done, err, deverr.KindBounds)
		}
	}
	if c := d.Counters(); c != (blockdev.Counters{}) {
		t.Fatalf("refused I/O was counted: %+v", c)
	}
}

func mustWrite(t *testing.T, d *Dev, now sim.Duration, off int64, n int, data []byte) sim.Duration {
	t.Helper()
	done, err := d.WriteErr(now, off, n, data)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

func mustRead(t *testing.T, d *Dev, now sim.Duration, off int64, n int, buf []byte) sim.Duration {
	t.Helper()
	done, err := d.ReadErr(now, off, n, buf)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// mustSync issues a durability barrier that must succeed.
func mustSync(t *testing.T, d *Dev) {
	t.Helper()
	if err := d.SyncErr(); err != nil {
		t.Fatal(err)
	}
}
