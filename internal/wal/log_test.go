package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"strings"
	"testing"

	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// appendSeqs appends one synced record per sequence number to w.
func appendSeqs(t *testing.T, w *Writer, now sim.Duration, seqs ...uint64) sim.Duration {
	t.Helper()
	for _, s := range seqs {
		var err error
		rec := Record{Seq: s, Key: kv.EncodeKey(s), Value: []byte{byte(s)}}
		if now, err = w.Append(now, &rec, true); err != nil {
			t.Fatal(err)
		}
	}
	return now
}

func recycle(t *testing.T, l *Log, now sim.Duration, w *Writer) sim.Duration {
	t.Helper()
	now, err := l.Recycle(now, w)
	if err != nil {
		t.Fatal(err)
	}
	return now
}

func rotate(t *testing.T, l *Log) *Writer {
	t.Helper()
	old, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	return old
}

func seqsOf(recs []Record) []uint64 {
	var out []uint64
	for _, r := range recs {
		out = append(out, r.Seq)
	}
	return out
}

// TestLogMintsNamesAndReusesLIFO: segment names come from one counter,
// Rotate hands back the old active writer, and recycled writers are
// reused last in, first out before any new name is minted.
func TestLogMintsNamesAndReusesLIFO(t *testing.T) {
	fs, _ := newTestFS(t, false)
	l := NewLog(fs, "j-", false, false)
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	if got := l.Name(); got != "j-000001" {
		t.Fatalf("first segment %q, want j-000001", got)
	}
	w1 := rotate(t, l)
	w2 := rotate(t, l)
	if w1.Name() != "j-000001" || w2.Name() != "j-000002" || l.Name() != "j-000003" {
		t.Fatalf("rotations handed back %s, %s with %s active", w1.Name(), w2.Name(), l.Name())
	}
	var now sim.Duration
	now = recycle(t, l, now, w1)
	recycle(t, l, now, w2)
	var order []string
	for i := 0; i < 3; i++ {
		rotate(t, l)
		order = append(order, l.Name())
	}
	if want := []string{"j-000002", "j-000001", "j-000004"}; !slices.Equal(order, want) {
		t.Fatalf("active writers after rotations %v, want %v", order, want)
	}
	if l.ID() != 4 {
		t.Fatalf("ID %d, want 4", l.ID())
	}
}

// TestLogDisabled: a disabled log creates no segment, has no active
// writer, and its rotations and recycles do nothing.
func TestLogDisabled(t *testing.T) {
	fs, _ := newTestFS(t, false)
	l := NewLog(fs, "j-", false, true)
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	old := rotate(t, l)
	if l.Writer != nil || old != nil {
		t.Fatalf("disabled log has writers: active %v, rotated %v", l.Writer, old)
	}
	if _, err := l.Recycle(0, nil); err != nil {
		t.Fatal(err)
	}
	if names := fs.List(); len(names) != 0 {
		t.Fatalf("disabled log created %v", names)
	}
}

// TestLogRecoverAdvancesIDPastSurvivors: a segment whose id no root
// recorded still moves the counter, so the next name cannot collide.
func TestLogRecoverAdvancesIDPastSurvivors(t *testing.T) {
	fs, _ := newTestFS(t, true)
	if _, err := Create(fs, "j-000007", true); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(fs, "other-000009", true); err != nil {
		t.Fatal(err)
	}
	l := NewLog(fs, "j-", true, false)
	if _, _, err := l.Recover(0, 3, 0); err != nil {
		t.Fatal(err)
	}
	if l.ID() != 7 {
		t.Fatalf("ID %d after recovery, want 7", l.ID())
	}
	if err := l.Start(); err != nil {
		t.Fatalf("start after recovery: %v", err)
	}
	if l.Name() != "j-000008" {
		t.Fatalf("next segment %s, want j-000008", l.Name())
	}
	// A recorded id above every survivor stands.
	l2 := NewLog(fs, "j-", true, false)
	if _, _, err := l2.Recover(0, 12, 0); err != nil || l2.ID() != 12 {
		t.Fatalf("ID %d (err %v), want the recorded 12", l2.ID(), err)
	}
}

// TestLogRecoverOrdersRecycledSegments: a recycled segment reused out of
// name order still replays in sequence order, a recycled segment not
// yet reused replays nothing of its previous generation, and records at
// or below the floor are dropped.
func TestLogRecoverOrdersRecycledSegments(t *testing.T) {
	fs, _ := newTestFS(t, true)
	l := NewLog(fs, "j-", true, false)
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	now := appendSeqs(t, l.Writer, 0, 1, 2, 3) // j-000001
	w1 := rotate(t, l)
	now = appendSeqs(t, l.Writer, now, 4, 5, 6) // j-000002, never recycled
	now = recycle(t, l, now, w1)
	rotate(t, l)
	now = appendSeqs(t, l.Writer, now, 7, 8) // j-000001 reused
	rotate(t, l)
	now = appendSeqs(t, l.Writer, now, 9) // j-000003
	w3 := rotate(t, l)
	now = appendSeqs(t, l.Writer, now, 10) // j-000004
	recycle(t, l, now, w3)                 // 9 is gone
	for _, tc := range []struct {
		floor uint64
		want  []uint64
	}{
		{0, []uint64{4, 5, 6, 7, 8, 10}},
		{5, []uint64{6, 7, 8, 10}},
		{10, nil},
	} {
		re := NewLog(fs, "j-", true, false)
		recs, _, err := re.Recover(0, 0, tc.floor)
		if err != nil {
			t.Fatal(err)
		}
		if got := seqsOf(recs); !slices.Equal(got, tc.want) {
			t.Fatalf("floor %d: replayed %v, want %v", tc.floor, got, tc.want)
		}
		for _, r := range recs {
			if !bytes.Equal(r.Key, kv.EncodeKey(r.Seq)) || !bytes.Equal(r.Value, []byte{byte(r.Seq)}) {
				t.Fatalf("record %d replayed as %+v", r.Seq, r)
			}
		}
	}
}

// TestLogRetireKeepsActiveAndPooled: Retire removes every replayed
// segment except the active writer's and the pooled ones, once.
func TestLogRetireKeepsActiveAndPooled(t *testing.T) {
	fs, _ := newTestFS(t, true)
	l := NewLog(fs, "j-", true, false)
	if err := l.Start(); err != nil {
		t.Fatal(err)
	}
	w1 := rotate(t, l) // j-000001, pooled below
	w2 := rotate(t, l) // j-000002, neither active nor pooled
	now := recycle(t, l, 0, w1)
	if _, _, err := l.Recover(now, l.ID(), 0); err != nil {
		t.Fatal(err)
	}
	if err := l.Retire(); err != nil {
		t.Fatal(err)
	}
	if got, want := fs.List(), []string{"j-000001", "j-000003"}; !slices.Equal(got, want) {
		t.Fatalf("after Retire: %v, want %v (%s retired)", got, want, w2.Name())
	}
	if err := l.Retire(); err != nil {
		t.Fatalf("second Retire: %v", err)
	}
}

// The slot tests use a 12-byte record: a magic, then the generation.
const slotMagic = 0x534C4F54 // "SLOT"

func decodeTestSlot(b []byte) (*uint64, uint64, error) {
	if len(b) < 12 || binary.LittleEndian.Uint32(b) != slotMagic {
		return nil, 0, errors.New("bad slot")
	}
	gen := binary.LittleEndian.Uint64(b[4:])
	return &gen, gen, nil
}

func writeSlot(t *testing.T, s Slots[uint64], fs *extfs.FS, gen uint64) {
	t.Helper()
	page := make([]byte, fs.PageSize())
	binary.LittleEndian.PutUint32(page, slotMagic)
	binary.LittleEndian.PutUint64(page[4:], gen)
	if _, err := s.Write(0, gen, 1, page); err != nil {
		t.Fatal(err)
	}
}

// fillSlot overwrites a slot's page with b repeated.
func fillSlot(t *testing.T, fs *extfs.FS, name string, b byte) {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(0, 0, 1, bytes.Repeat([]byte{b}, fs.PageSize())); err != nil {
		t.Fatal(err)
	}
}

func readSlot(t *testing.T, s Slots[uint64]) (uint64, bool, error) {
	t.Helper()
	v, _, err := s.Read(0)
	if v == nil {
		return 0, false, err
	}
	return *v, true, err
}

// TestSlotsAlternateByGeneration: generation g lands in slot (g+1)%2,
// and a read returns the newest.
func TestSlotsAlternateByGeneration(t *testing.T) {
	fs, _ := newTestFS(t, true)
	s := NewSlots(fs, "root", "test: root", decodeTestSlot)
	if _, ok, err := readSlot(t, s); ok || err != nil {
		t.Fatalf("missing slots: ok=%v err=%v, want nothing", ok, err)
	}
	writeSlot(t, s, fs, 1)
	if got := fs.List(); !slices.Equal(got, []string{"root-A"}) {
		t.Fatalf("generation 1 wrote %v, want root-A", got)
	}
	for gen := uint64(1); gen <= 4; gen++ {
		writeSlot(t, s, fs, gen)
		name := "root-B"
		if gen%2 == 1 {
			name = "root-A"
		}
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		page := make([]byte, fs.PageSize())
		if _, err := f.ReadAt(0, 0, 1, page); err != nil {
			t.Fatal(err)
		}
		if _, g, err := decodeTestSlot(page); err != nil || g != gen {
			t.Fatalf("generation %d not in %s (read %d, %v)", gen, name, g, err)
		}
		if got, ok, err := readSlot(t, s); !ok || err != nil || got != gen {
			t.Fatalf("read %d (ok=%v, err=%v), want %d", got, ok, err, gen)
		}
	}
}

// TestSlotsCorruption: one garbled slot falls back to the other; both
// garbled is a loud error; both all-zero (a first write's torn slot) is
// a legitimate bootstrap.
func TestSlotsCorruption(t *testing.T) {
	setup := func(t *testing.T) (*extfs.FS, Slots[uint64]) {
		fs, _ := newTestFS(t, true)
		s := NewSlots(fs, "root", "test: root", decodeTestSlot)
		for gen := uint64(1); gen <= 3; gen++ { // gens 1, 3 in A; 2 in B
			writeSlot(t, s, fs, gen)
		}
		return fs, s
	}
	t.Run("both-slots-garbled", func(t *testing.T) {
		fs, s := setup(t)
		fillSlot(t, fs, "root-A", 0xA5)
		fillSlot(t, fs, "root-B", 0xA5)
		_, ok, err := readSlot(t, s)
		if ok || err == nil || !strings.Contains(err.Error(), "test: root corrupt in both slots") {
			t.Fatalf("double corruption: ok=%v err=%v", ok, err)
		}
	})
	t.Run("one-slot-garbled", func(t *testing.T) {
		for _, tc := range []struct {
			slot string
			want uint64
		}{{"root-A", 2}, {"root-B", 3}} {
			fs, s := setup(t)
			fillSlot(t, fs, tc.slot, 0xA5)
			if got, ok, err := readSlot(t, s); !ok || err != nil || got != tc.want {
				t.Fatalf("%s garbled: read %d (ok=%v, err=%v), want %d", tc.slot, got, ok, err, tc.want)
			}
		}
	})
	t.Run("all-zero-slots-bootstrap", func(t *testing.T) {
		fs, s := setup(t)
		fillSlot(t, fs, "root-A", 0)
		fillSlot(t, fs, "root-B", 0)
		if _, ok, err := readSlot(t, s); ok || err != nil {
			t.Fatalf("all-zero slots: ok=%v err=%v, want a bootstrap", ok, err)
		}
	})
	t.Run("one-slot-zero-other-garbled", func(t *testing.T) {
		fs, s := setup(t)
		fillSlot(t, fs, "root-A", 0)
		fillSlot(t, fs, "root-B", 0xA5)
		if _, _, err := readSlot(t, s); err == nil {
			t.Fatal("a zero slot beside a garbled one must still be refused")
		}
	})
}
