package faultdev

// Tests for the host-stack error model: per-op EIO verdicts, short and
// misdirected writes, lying fsyncs, sticky latent sectors, the arm
// point, disarm-on-PowerOn, and the bit-identity guarantee for plans
// with no error verdicts.

import (
	"bytes"
	"errors"
	"testing"

	"ptsbench/internal/deverr"
)

// TestWriteEIOTransient: an armed WriteEIOProb=1 plan fails every write
// with a typed transient EIO, nothing lands, and the counter advances.
func TestWriteEIOTransient(t *testing.T) {
	d := Wrap(newInner(t), Plan{Seed: 3, WriteEIOProb: 1})
	_, err := d.WriteErr(0, 5, 1, pageData(d, 0x7E, 1))
	if err == nil {
		t.Fatal("write should fail with EIO")
	}
	de, ok := deverr.As(err)
	if !ok || de.Op != deverr.OpWrite || de.Kind != deverr.KindEIO || !de.Transient {
		t.Fatalf("wrong error shape: %v", err)
	}
	if !deverr.IsTransient(err) {
		t.Fatal("write EIO must classify as transient")
	}
	if got := readPage(t, d, 5); got[0] != 0 {
		t.Fatalf("failed write landed: %#x", got[0])
	}
	if inj := d.Injected(); inj.WriteEIO != 1 || inj.Total() != 1 {
		t.Fatalf("injection counters wrong: %+v", inj)
	}
	if d.Writes() != 0 {
		t.Fatal("a refused write must not count as acknowledged")
	}
}

// TestReadEIOTransient: an armed ReadEIOProb=1 plan fails every read
// with a transient EIO; the data stays intact underneath.
func TestReadEIOTransient(t *testing.T) {
	d := Wrap(newInner(t), Plan{Seed: 3, ReadEIOProb: 1})
	if _, err := d.WriteErr(0, 2, 1, pageData(d, 0x42, 1)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.PageSize())
	_, err := d.ReadErr(0, 2, 1, buf)
	de, ok := deverr.As(err)
	if !ok || de.Op != deverr.OpRead || !de.Transient {
		t.Fatalf("wrong error shape: %v", err)
	}
	if inj := d.Injected(); inj.ReadEIO != 1 {
		t.Fatalf("injection counters wrong: %+v", inj)
	}
}

// TestShortWritePrefix: a short verdict keeps only a prefix of a
// multi-page write; single-page writes are never shortened.
func TestShortWritePrefix(t *testing.T) {
	d := Wrap(newInner(t), Plan{Seed: 7, ShortProb: 1})
	if _, err := d.WriteErr(0, 0, 1, pageData(d, 0x01, 1)); err != nil {
		t.Fatal(err)
	}
	if got := readPage(t, d, 0); got[0] != 0x01 {
		t.Fatal("single-page write must land whole")
	}
	if _, err := d.WriteErr(0, 10, 4, pageData(d, 0x02, 4)); err != nil {
		t.Fatal(err)
	}
	if inj := d.Injected(); inj.Shorts != 1 {
		t.Fatalf("short counter wrong: %+v", inj)
	}
	if got := readPage(t, d, 10); got[0] != 0x02 {
		t.Fatal("short write must keep at least its first page")
	}
	if got := readPage(t, d, 13); got[0] != 0 {
		t.Fatal("short write must lose its last page (keep < n always)")
	}
	// The lost suffix stays lost across a barrier: the ack lied about it.
	mustSync(t, d)
	if got := d.DurablePage(13); got != nil {
		t.Fatal("shortened page must not become durable at the barrier")
	}
}

// TestMisdirectNeighbor: a misdirected write lands exactly one LBA away
// and the target keeps its stale content.
func TestMisdirectNeighbor(t *testing.T) {
	d := Wrap(newInner(t), Plan{Seed: 5, MisdirectProb: 1})
	if _, err := d.WriteErr(0, 20, 1, pageData(d, 0x9A, 1)); err != nil {
		t.Fatal(err)
	}
	if inj := d.Injected(); inj.Misdirects != 1 {
		t.Fatalf("misdirect counter wrong: %+v", inj)
	}
	if got := readPage(t, d, 20); got[0] != 0 {
		t.Fatal("misdirected target must keep stale (zero) content")
	}
	if got := readPage(t, d, 21); got[0] != 0x9A {
		t.Fatal("payload must land on the neighboring LBA")
	}
}

// TestFsyncLie: a lying barrier acknowledges without advancing the
// durability frontier; a later honest barrier heals the window.
func TestFsyncLie(t *testing.T) {
	d := Wrap(newInner(t), Plan{Seed: 11, FsyncLieProb: 1})
	if _, err := d.WriteErr(0, 4, 1, pageData(d, 0x33, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.SyncErr(); err != nil {
		t.Fatal(err)
	}
	if inj := d.Injected(); inj.FsyncLies != 1 {
		t.Fatalf("fsync-lie counter wrong: %+v", inj)
	}
	if d.DurablePage(4) != nil {
		t.Fatal("lying barrier must not make the write durable")
	}
	// Disable the lie; the next barrier folds the still-pending window.
	d.plan.FsyncLieProb = 0
	if err := d.SyncErr(); err != nil {
		t.Fatal(err)
	}
	if got := d.DurablePage(4); got == nil || got[0] != 0x33 {
		t.Fatal("honest barrier must fold the window the lie left pending")
	}
}

// TestLatentSticky: reads of a latent sector fail persistently until a
// successful rewrite reallocates it.
func TestLatentSticky(t *testing.T) {
	d := Wrap(newInner(t), Plan{Seed: 2, LatentPages: []int64{7}})
	buf := make([]byte, d.PageSize())
	for i := 0; i < 2; i++ {
		_, err := d.ReadErr(0, 7, 1, buf)
		de, ok := deverr.As(err)
		if !ok || de.Kind != deverr.KindLatent || de.Transient {
			t.Fatalf("read %d: want persistent latent error, got %v", i, err)
		}
		if deverr.IsTransient(err) {
			t.Fatal("latent errors must not classify as transient")
		}
	}
	if inj := d.Injected(); inj.LatentReads != 2 {
		t.Fatalf("latent counter wrong: %+v", inj)
	}
	if _, err := d.WriteErr(0, 7, 1, pageData(d, 0x55, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadErr(0, 7, 1, buf); err != nil {
		t.Fatalf("rewrite must reallocate the sector: %v", err)
	}
	if buf[0] != 0x55 {
		t.Fatal("reallocated sector must serve the new content")
	}
}

// TestArmAfterWrites holds every verdict until the Nth acknowledged
// write.
func TestArmAfterWrites(t *testing.T) {
	d := Wrap(newInner(t), Plan{Seed: 9, ArmAfterWrites: 2, WriteEIOProb: 1})
	if _, err := d.WriteErr(0, 0, 1, pageData(d, 0x01, 1)); err != nil {
		t.Fatalf("write 1 precedes the arm point: %v", err)
	}
	if _, err := d.WriteErr(0, 1, 1, pageData(d, 0x02, 1)); err != nil {
		t.Fatalf("write 2 is the arm point itself (verdicts apply after): %v", err)
	}
	if _, err := d.WriteErr(0, 2, 1, pageData(d, 0x03, 1)); err == nil {
		t.Fatal("write 3 is past the arm point and must fail")
	}
}

// TestPowerOnDisarms: a power cycle disarms the whole error model so
// recovery I/O runs fault-free, while the damage already done stays.
func TestPowerOnDisarms(t *testing.T) {
	d := Wrap(newInner(t), Plan{
		Seed: 13, ReadEIOProb: 1, WriteEIOProb: 1, ShortProb: 1,
		MisdirectProb: 1, FsyncLieProb: 1, LatentPages: []int64{3},
	})
	d.PowerCut()
	if _, err := d.PowerOn(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteErr(0, 3, 2, pageData(d, 0x66, 2)); err != nil {
		t.Fatalf("post-power-on write must run fault-free: %v", err)
	}
	buf := make([]byte, 2*d.PageSize())
	if _, err := d.ReadErr(0, 3, 2, buf); err != nil {
		t.Fatalf("post-power-on read must run fault-free: %v", err)
	}
	if buf[0] != 0x66 || buf[d.PageSize()] != 0x66 {
		t.Fatal("post-power-on write must land whole and in place")
	}
	if err := d.SyncErr(); err != nil {
		t.Fatal(err)
	}
	if d.DurablePage(3) == nil {
		t.Fatal("post-power-on barrier must be honest")
	}
}

// TestZeroProbBitIdentity: a plan with no error verdicts consumes
// nothing from the error stream and resolves a cut identically to a
// pre-error-model plan — the golden-fixture compatibility guarantee.
func TestZeroProbBitIdentity(t *testing.T) {
	run := func(plan Plan) []byte {
		d := Wrap(newInner(t), plan)
		for i := int64(0); i < 6; i++ {
			mustWrite(t, d, i*4, 3, pageData(d, byte(0x10+i), 3))
			if i == 2 {
				mustSync(t, d)
			}
		}
		if _, err := d.PowerOn(); err != nil {
			t.Fatal(err)
		}
		var img []byte
		for lba := int64(0); lba < 24; lba++ {
			if p := d.DurablePage(lba); p != nil {
				img = append(img, byte(lba), p[0])
			}
		}
		return img
	}
	base := run(Plan{Seed: 77, DropProb: 0.4, TornProb: 0.5, CutAfterWrites: 5})
	// Same plan plus an armed-but-never-triggering error model: the
	// verdict stream is separate, so the resolved image is identical.
	withModel := run(Plan{
		Seed: 77, DropProb: 0.4, TornProb: 0.5, CutAfterWrites: 5,
		ArmAfterWrites: 1000, ReadEIOProb: 0.5, WriteEIOProb: 0.5,
	})
	if !bytes.Equal(base, withModel) {
		t.Fatalf("durable image diverged:\nbase %x\nwith %x", base, withModel)
	}
}

// TestErrVerdictDeterminism: same plan, same op sequence, same verdicts
// and counters.
func TestErrVerdictDeterminism(t *testing.T) {
	run := func() (Injected, []error) {
		d := Wrap(newInner(t), Plan{Seed: 19, WriteEIOProb: 0.4, ReadEIOProb: 0.3, ShortProb: 0.3})
		var errs []error
		buf := make([]byte, 2*d.PageSize())
		for i := int64(0); i < 20; i++ {
			_, werr := d.WriteErr(0, i*2, 2, pageData(d, byte(i), 2))
			_, rerr := d.ReadErr(0, i*2, 2, buf)
			errs = append(errs, werr, rerr)
		}
		return d.Injected(), errs
	}
	injA, errsA := run()
	injB, errsB := run()
	if injA != injB {
		t.Fatalf("counters diverged: %+v vs %+v", injA, injB)
	}
	if injA.Total() == 0 {
		t.Fatal("probabilistic plan injected nothing over 40 ops")
	}
	for i := range errsA {
		if (errsA[i] == nil) != (errsB[i] == nil) {
			t.Fatalf("verdict %d diverged: %v vs %v", i, errsA[i], errsB[i])
		}
	}
}

// TestLatchedClassification pins the deverr.Latched contract the
// engines rely on: latching strips transience, survives double-latch,
// and keeps the root cause reachable.
func TestLatchedClassification(t *testing.T) {
	if deverr.Latch(nil) != nil {
		t.Fatal("latching nil must stay nil")
	}
	cause := &deverr.Error{Op: deverr.OpWrite, LBA: 9, Kind: deverr.KindEIO, Transient: true}
	if !deverr.IsTransient(cause) {
		t.Fatal("raw transient EIO must classify as transient")
	}
	latched := deverr.Latch(cause)
	if deverr.IsTransient(latched) {
		t.Fatal("a latched error must never classify as transient")
	}
	if deverr.Latch(latched) != latched {
		t.Fatal("double latch must not re-wrap")
	}
	de, ok := deverr.As(latched)
	if !ok || de != cause {
		t.Fatal("the root cause must stay reachable through the latch")
	}
	if !errors.Is(latched, cause) {
		t.Fatal("errors.Is must see through the latch")
	}
}
