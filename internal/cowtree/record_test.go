package cowtree

import (
	"bytes"
	"encoding/binary"
	"testing"
	"unsafe"

	"ptsbench/internal/arena"
	"ptsbench/internal/kv"
)

// TestRecordSize pins the record at 40 bytes: the key's two words, a
// sequence, one pointer to out-of-line bytes and the packed lengths and
// flag. Growing it (a 56-byte form kept a key slice beside the words)
// cost betree-mixed +19 % allocated bytes per op in message arrays, and
// the B+Tree's leaves hold the same record.
func TestRecordSize(t *testing.T) {
	if sz := unsafe.Sizeof(Record{}); sz != 40 {
		t.Fatalf("Record is %d bytes, want 40", sz)
	}
}

// TestRecordOwn pins what RecordArena.Own keeps. A record with no value
// keeps no out-of-line header at all — fresh, or over a resident that
// carried a value — and takes nothing from the arena or the header
// arena. Every value is copied into the arena, never aliasing the
// caller's buffer; a value over a value-bearing resident takes over its
// header.
func TestRecordOwn(t *testing.T) {
	var a RecordArena
	untouched := func(what string, f func()) {
		t.Helper()
		if b, h := taken(&a, f); b != 0 || h != 0 {
			t.Fatalf("%s took %d arena bytes and %d headers", what, b, h)
		}
	}
	key := bytes.Repeat([]byte{7}, kv.KeySize)

	r := MakeRecord(key, 1, 4000, false)
	untouched("a fresh accounting-mode record", func() { a.Own(&r, nil, nil) })
	if r.ext != nil {
		t.Fatal("a fresh accounting-mode record keeps a header")
	}
	tomb := MakeRecord(key, 2, 0, true)
	untouched("a fresh tombstone", func() { a.Own(&tomb, nil, nil) })
	if tomb.ext != nil {
		t.Fatal("a fresh tombstone keeps a header")
	}

	withVal := MakeRecord(key, 3, 5, false)
	val := []byte("value")
	a.Own(&withVal, val, nil)
	if withVal.ext == nil || string(withVal.Val()) != "value" {
		t.Fatalf("a value-bearing record kept %v", withVal.ext)
	}
	val[0] = 'V'
	if string(withVal.Val()) != "value" {
		t.Fatal("the stored value aliases the caller's buffer")
	}
	var kb [kv.KeySize]byte
	if !bytes.Equal(withVal.Key(&kb), key) {
		t.Fatalf("key %x, want %x", withVal.Key(&kb), key)
	}
	for _, over := range []Record{MakeRecord(key, 4, 0, true), MakeRecord(key, 4, 4000, false)} {
		resident := withVal
		untouched("a record without a value over a value-bearing resident", func() { a.Own(&over, nil, &resident) })
		if over.ext != nil {
			t.Fatalf("a record without a value over a value-bearing resident keeps a header: %+v", over)
		}
	}
	newer, resident := MakeRecord(key, 5, 6, false), withVal
	if _, h := taken(&a, func() { a.Own(&newer, []byte("value2"), &resident) }); h != 0 || newer.ext != withVal.ext || string(newer.Val()) != "value2" {
		t.Fatalf("a value over a value-bearing resident took %d new headers (value %q)", h, newer.Val())
	}
}

// TestParseRecordRefusesOtherWidths feeds ParseRecord an entry of every
// key width from 0 to 24 bytes: only a kv.KeySize key parses, into the
// record AppendRecord wrote; every other width is corruption.
func TestParseRecordRefusesOtherWidths(t *testing.T) {
	for width := 0; width <= 24; width++ {
		img := binary.LittleEndian.AppendUint16(nil, uint16(width))
		img = binary.LittleEndian.AppendUint32(img, 3)
		img = binary.LittleEndian.AppendUint64(img, 9|1<<63)
		img = append(img, bytes.Repeat([]byte{0xAB}, width)...)
		img = append(img, "val"...)
		r, used := ParseRecord(img)
		if width != kv.KeySize {
			if used != 0 {
				t.Fatalf("a %d-byte key parsed (%d bytes used)", width, used)
			}
			continue
		}
		if used != len(img) || r.Seq() != 9 || !r.Del() || string(r.Val()) != "val" {
			t.Fatalf("the %d-byte key parsed as %+v (%d of %d bytes)", width, r, used, len(img))
		}
		if again := AppendRecord(nil, &r); !bytes.Equal(again, img) {
			t.Fatalf("re-encoded %x, want %x", again, img)
		}
	}
}

// TestInsertRecord pins the shared upsert: records land in key order,
// an overwrite replaces the resident and returns the size difference, a
// record older than the resident (recovery replay) is dropped with a
// zero delta, and a nil arena stores an owned record as it is.
func TestInsertRecord(t *testing.T) {
	var pool arena.Pool[Record]
	var a RecordArena
	var rs []Record
	put := func(id uint64, seq uint64, val string) int {
		key := kv.EncodeKey(id)
		var delta int
		rs, delta = InsertRecord(&pool, &a, rs, MakeRecord(key, seq, len(val), false), kv.NewTarget(key), []byte(val))
		return delta
	}
	for _, id := range []uint64{5, 1, 9, 3} {
		if d := put(id, id, "v"); d != RecordOverhead+kv.KeySize+1 {
			t.Fatalf("fresh insert of %d: delta %d", id, d)
		}
	}
	for i := 1; i < len(rs); i++ {
		if CompareRecords(&rs[i-1], &rs[i]) >= 0 {
			t.Fatalf("records out of order at %d", i)
		}
	}
	if d := put(9, 20, "longer"); d != 5 || len(rs) != 4 || string(rs[3].Val()) != "longer" {
		t.Fatalf("overwrite: delta %d, %d records, value %q", d, len(rs), rs[3].Val())
	}
	if d := put(9, 19, "stale"); d != 0 || rs[3].Seq() != 20 || string(rs[3].Val()) != "longer" {
		t.Fatalf("a stale record replaced seq 20 (delta %d, now seq %d)", d, rs[3].Seq())
	}
	if d := put(9, 20, "same"); d != -2 || string(rs[3].Val()) != "same" {
		t.Fatalf("a record as new as the resident: delta %d, value %q", d, rs[3].Val())
	}

	owned := rs[0]
	key := kv.EncodeKey(4)
	moved := MakeRecord(key, 30, owned.Vlen(), false)
	moved.ext = owned.ext
	var delta int
	b, h := taken(&a, func() { rs, delta = InsertRecord(&pool, nil, rs, moved, kv.NewTarget(key), nil) })
	if i := SearchRecords(rs, kv.NewTarget(key)); delta != moved.Size() || rs[i].ext != owned.ext || b != 0 || h != 0 {
		t.Fatalf("an owned record was not stored as it is (delta %d)", delta)
	}
}

// taken returns the arena bytes and recordBytes headers a handed out
// while f ran, from the distance between a one-unit allocation of each
// before f and one after it (btree's and betree's arenaTaken probe).
func taken(a *RecordArena, f func()) (nbytes, nheaders int) {
	b0, h0 := a.Alloc(1), a.exts.New()
	f()
	b1, h1 := a.Alloc(1), a.exts.New()
	nbytes = int(uintptr(unsafe.Pointer(&b1[0])) - uintptr(unsafe.Pointer(&b0[0])) - 1)
	nheaders = int((uintptr(unsafe.Pointer(h1))-uintptr(unsafe.Pointer(h0)))/unsafe.Sizeof(recordBytes{})) - 1
	return nbytes, nheaders
}

func TestAppendZeros(t *testing.T) {
	for _, n := range []int{0, 1, len(zeroPad), 2*len(zeroPad) + 5} {
		out := AppendZeros([]byte("ab"), n)
		if len(out) != 2+n || string(out[:2]) != "ab" || !bytes.Equal(out[2:], make([]byte, n)) {
			t.Fatalf("AppendZeros(%d): len %d", n, len(out))
		}
	}
}
