package faultdev

import (
	"bytes"
	"testing"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/flash"
)

func newInner(t *testing.T) *blockdev.Device {
	t.Helper()
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  8 << 20,
		PageSize:      4096,
		PagesPerBlock: 64,
		Profile:       flash.ProfileSSD1().Scaled(4096),
	})
	if err != nil {
		t.Fatal(err)
	}
	return blockdev.New(ssd)
}

func pageData(d *Dev, fill byte, n int) []byte {
	data := make([]byte, n*d.PageSize())
	for i := range data {
		data[i] = fill
	}
	return data
}

func readPage(t *testing.T, d *Dev, lba int64) []byte {
	t.Helper()
	buf := make([]byte, d.PageSize())
	d.ReadAt(0, lba, 1, buf)
	return buf
}

// A zero plan is a transparent content-carrying overlay: reads return
// acknowledged writes, and the inner device sees the traffic.
func TestTransparentOverlay(t *testing.T) {
	inner := newInner(t)
	d := Wrap(inner, Plan{})
	d.WriteAt(0, 10, 2, pageData(d, 0xAB, 2))
	if got := readPage(t, d, 11); got[0] != 0xAB {
		t.Fatalf("acknowledged write not visible: got %#x", got[0])
	}
	if got := readPage(t, d, 12); got[0] != 0 {
		t.Fatalf("unwritten page not zero: got %#x", got[0])
	}
	c := inner.Counters()
	if c.WriteOps != 1 || c.ReadOps != 2 {
		t.Fatalf("inner counters not forwarded: %+v", c)
	}
	if !d.ContentEnabled() {
		t.Fatal("wrapper must report content enabled")
	}
}

// Only barriered writes survive a cut; the in-flight write is shaped by
// CutKeepPages, and everything post-cut is ignored until PowerOn.
func TestCutDurabilityFrontier(t *testing.T) {
	d := Wrap(newInner(t), Plan{Seed: 1, CutAfterWrites: 3, CutKeepPages: -1})
	d.WriteAt(0, 0, 1, pageData(d, 0x11, 1)) // write 1
	mustSync(t, d)
	d.WriteAt(0, 1, 1, pageData(d, 0x22, 1)) // write 2: acked, unbarriered
	d.WriteAt(0, 2, 1, pageData(d, 0x33, 1)) // write 3: the cut lands here
	if !d.Cut() {
		t.Fatal("cut did not fire on write 3")
	}
	d.WriteAt(0, 3, 1, pageData(d, 0x44, 1)) // post-cut: ignored
	mustSync(t, d)                           // post-cut: must not make anything durable
	out, err := d.PowerOn()
	if err != nil {
		t.Fatal(err)
	}
	if out.Dropped != 1 {
		t.Fatalf("inflight write not dropped: %+v", out)
	}
	if got := readPage(t, d, 0); got[0] != 0x11 {
		t.Fatalf("barriered write lost: got %#x", got[0])
	}
	if got := readPage(t, d, 1); got[0] != 0x22 {
		t.Fatalf("unbarriered pre-cut write lost with DropProb=0: got %#x", got[0])
	}
	for lba, name := range map[int64]string{2: "inflight", 3: "post-cut"} {
		if got := readPage(t, d, lba); got[0] != 0 {
			t.Fatalf("%s write survived: got %#x", name, got[0])
		}
	}
}

// CutKeepPages > 0 keeps exactly the leading pages of the in-flight
// write; the rest retain their previous durable content.
func TestCutKeepPrefix(t *testing.T) {
	d := Wrap(newInner(t), Plan{Seed: 1, CutAfterWrites: 2, CutKeepPages: 2})
	d.WriteAt(0, 0, 4, pageData(d, 0x0F, 4))
	mustSync(t, d)
	d.WriteAt(0, 0, 4, pageData(d, 0xF0, 4)) // cut: keep pages 0-1
	d.PowerOn()
	for lba := int64(0); lba < 4; lba++ {
		want := byte(0xF0)
		if lba >= 2 {
			want = 0x0F
		}
		if got := readPage(t, d, lba); got[0] != want {
			t.Fatalf("page %d: got %#x want %#x", lba, got[0], want)
		}
	}
}

// A random tear (CutKeepPages == 0) loses a prefix, a suffix, or one
// interior page — never everything-kept, and lost pages show old data.
func TestCutRandomTear(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		d := Wrap(newInner(t), Plan{Seed: seed, CutAfterWrites: 2})
		d.WriteAt(0, 0, 4, pageData(d, 0x0F, 4))
		mustSync(t, d)
		d.WriteAt(0, 0, 4, pageData(d, 0xF0, 4))
		d.PowerOn()
		kept, lost := 0, 0
		for lba := int64(0); lba < 4; lba++ {
			switch got := readPage(t, d, lba); got[0] {
			case 0xF0:
				kept++
			case 0x0F:
				lost++
			default:
				t.Fatalf("seed %d page %d: unexpected byte %#x", seed, lba, got[0])
			}
		}
		if lost == 0 {
			t.Fatalf("seed %d: torn write survived intact", seed)
		}
		if kept+lost != 4 {
			t.Fatalf("seed %d: %d kept + %d lost != 4", seed, kept, lost)
		}
	}
}

// DropProb=1 erases every unbarriered write at power-on, including a
// pending discard — whose drop must resurrect the pre-discard page.
func TestDropAndDiscardPending(t *testing.T) {
	d := Wrap(newInner(t), Plan{Seed: 7, DropProb: 1})
	d.WriteAt(0, 0, 1, pageData(d, 0x11, 1))
	mustSync(t, d)
	d.Discard(0, 1)
	if got := readPage(t, d, 0); got[0] != 0 {
		t.Fatalf("discard not visible pre-cut: got %#x", got[0])
	}
	d.WriteAt(0, 1, 1, pageData(d, 0x22, 1))
	d.PowerCut()
	d.PowerOn()
	if got := readPage(t, d, 0); got[0] != 0x11 {
		t.Fatalf("dropped discard must resurrect the page: got %#x", got[0])
	}
	if got := readPage(t, d, 1); got[0] != 0 {
		t.Fatalf("unbarriered write must drop at DropProb=1: got %#x", got[0])
	}
}

// Bit-rot corrupts planned LBAs deterministically and leaves the rest
// intact.
func TestBitRotStable(t *testing.T) {
	d := Wrap(newInner(t), Plan{Seed: 3, RotPages: []int64{5}})
	d.WriteAt(0, 4, 2, pageData(d, 0x77, 2))
	mustSync(t, d)
	clean := readPage(t, d, 4)
	rot1 := readPage(t, d, 5)
	rot2 := readPage(t, d, 5)
	if clean[0] != 0x77 {
		t.Fatalf("clean page corrupted: %#x", clean[0])
	}
	if rot1[0] == 0x77 {
		t.Fatal("rot page not corrupted")
	}
	if !bytes.Equal(rot1, rot2) {
		t.Fatal("bit-rot must be stable across reads")
	}
}

// The same seed resolves the same pending window identically.
func TestDeterministicResolution(t *testing.T) {
	run := func() ([]byte, Outcome) {
		d := Wrap(newInner(t), Plan{Seed: 42, DropProb: 0.5, TornProb: 0.5})
		for i := int64(0); i < 8; i++ {
			d.WriteAt(0, i*4, 3, pageData(d, byte(0x10+i), 3))
		}
		d.PowerCut()
		out, err := d.PowerOn()
		if err != nil {
			t.Fatal(err)
		}
		img := make([]byte, 0, 32*d.PageSize())
		for lba := int64(0); lba < 32; lba++ {
			img = append(img, readPage(t, d, lba)...)
		}
		return img, out
	}
	img1, out1 := run()
	img2, out2 := run()
	if out1 != out2 {
		t.Fatalf("outcomes differ: %+v vs %+v", out1, out2)
	}
	if !bytes.Equal(img1, img2) {
		t.Fatal("surviving images differ for the same seed")
	}
	if out1.Dropped == 0 && out1.Torn == 0 {
		t.Fatalf("plan with drop/torn probability resolved everything intact: %+v", out1)
	}
}

// The write log records every acknowledged write so scripted tests can
// aim the cut at a specific one.
func TestWriteLog(t *testing.T) {
	d := Wrap(newInner(t), Plan{})
	d.WriteAt(0, 3, 2, nil)
	d.WriteAt(0, 9, 1, nil)
	log := d.WriteLog()
	if len(log) != 2 || log[0] != (WriteRecord{Off: 3, N: 2}) || log[1] != (WriteRecord{Off: 9, N: 1}) {
		t.Fatalf("unexpected write log: %+v", log)
	}
}

// mustSync issues a durability barrier that must succeed.
func mustSync(t *testing.T, d *Dev) {
	t.Helper()
	if err := d.SyncErr(); err != nil {
		t.Fatal(err)
	}
}
