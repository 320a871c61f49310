package cowtree

import (
	"bytes"
	"encoding/binary"

	"ptsbench/internal/arena"
	"ptsbench/internal/kv"
)

// RecordOverhead is a record's serialized header: keyLen(2) +
// valueLen(4) + seq(8).
const RecordOverhead = 14

// Record is the one leaf entry of both trees, and the Bε-tree's buffered
// message: key, optional value bytes (content mode), accounted value
// length, sequence and tombstone flag. The key — a kv.KeySize key, the
// only width the engines take — is held only as its two big-endian
// words (hi, lo): a binary-search probe compares them without leaving
// the record, and an accounting-mode record owns no bytes at all.
// Content-mode value bytes live out of line in ext. The record stays 40
// bytes: the arrays the trees keep allocating for leaves and buffers
// are what a larger one would cost.
type Record struct {
	hi, lo uint64
	seq    uint64
	ext    *recordBytes
	vlen   int32
	del    bool
}

// recordBytes is a record's out-of-line storage, one arena allocation:
// its value bytes in content mode. A stored record owns its
// recordBytes alone, so a record that replaces it may reuse it.
type recordBytes struct{ b []byte }

// MakeRecord builds an unowned record for key, a kv.KeySize key: its
// words, no bytes. The value's bytes travel beside it until
// RecordArena.Own copies what must be kept.
func MakeRecord(key []byte, seq uint64, vlen int, del bool) Record {
	hi, lo := kv.DecomposeKey(key)
	return Record{hi: hi, lo: lo, seq: seq, vlen: int32(vlen), del: del}
}

// Seq returns the record's sequence number.
func (r *Record) Seq() uint64 { return r.seq }

// Del reports whether the record is a tombstone.
func (r *Record) Del() bool { return r.del }

// Vlen returns the accounted value length.
func (r *Record) Vlen() int { return int(r.vlen) }

// Size returns the record's serialized footprint.
func (r *Record) Size() int {
	return RecordOverhead + kv.KeySize + int(r.vlen)
}

// Key returns the key, encoded from the words into buf.
func (r *Record) Key(buf *[kv.KeySize]byte) []byte {
	binary.BigEndian.PutUint64(buf[:8], r.hi)
	binary.BigEndian.PutUint64(buf[8:], r.lo)
	return buf[:]
}

// Val returns an owned record's value bytes, or nil when it carries
// none (accounting mode, tombstones).
func (r *Record) Val() []byte {
	if r.ext == nil {
		return nil
	}
	return r.ext.b
}

// Target returns the key as a search target, its bytes in buf.
func (r *Record) Target(buf *[kv.KeySize]byte) kv.Target {
	return kv.Target{Key: r.Key(buf), Hi: r.hi, Lo: r.lo}
}

// Is reports whether the record's key is t's.
func (r *Record) Is(t *kv.Target) bool { return r.hi == t.Hi && r.lo == t.Lo }

// CompareRecords orders two records by key like bytes.Compare.
func CompareRecords(a, b *Record) int {
	switch {
	case a.hi != b.hi:
		if a.hi < b.hi {
			return -1
		}
		return 1
	case a.lo < b.lo:
		return -1
	case a.lo > b.lo:
		return 1
	}
	return 0
}

// SearchRecords returns the index of the first record in rs with
// key >= t. Keys are compared on their words, so a probe touches
// nothing beyond the record it reads.
func SearchRecords(rs []Record, t kv.Target) int {
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r := &rs[mid]; r.hi < t.Hi || (r.hi == t.Hi && r.lo < t.Lo) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// FindRecord returns the record in rs (sorted by key) whose key is t's,
// or nil.
func FindRecord(rs []Record, t kv.Target) *Record {
	if i := SearchRecords(rs, t); i < len(rs) && rs[i].Is(&t) {
		return &rs[i]
	}
	return nil
}

// InsertRecord upserts r into rs (sorted by key), returning the array
// and the serialized size delta: the one upsert of both trees' leaves
// and the Bε-tree's buffers. t is r's key as a search target. With a
// non-nil ra r is unowned — val is the caller's reused buffer beside
// it — and ra.Own copies only what must be kept; with a
// nil ra r already owns its bytes (a message moving down). A record
// for the same key is overwritten when r is at least as new; an older r
// (only recovery replay can bring one) is dropped. Array growth recycles
// through pool, so the steady-state upsert costs no heap allocation.
func InsertRecord(pool *arena.Pool[Record], ra *RecordArena, rs []Record, r Record, t kv.Target, val []byte) ([]Record, int) {
	i := SearchRecords(rs, t)
	delta := r.Size()
	var resident *Record
	if i < len(rs) && rs[i].Is(&t) {
		resident = &rs[i]
		if r.seq < resident.seq {
			return rs, 0
		}
		delta -= resident.Size()
	}
	if ra != nil {
		ra.Own(&r, val, resident)
	}
	if resident != nil {
		*resident = r
		return rs, delta
	}
	return pool.GrowInsert(rs, i, r), delta
}

// RecordArena backs what stored records keep: the byte arena and the
// arena of recordBytes headers that point into it. Retained bytes are
// immortal — ids and nodes are never reused — so the byte arena turns
// what would be one heap object per stored value into one chunk per
// recordChunkBytes.
type RecordArena struct {
	arena.Arena[byte]
	exts arena.Arena[recordBytes]
}

// recordChunkBytes is a tree's byte-arena chunk, which Core.setup sets:
// large enough to amortize the chunk allocation to noise, small enough
// that a mostly-idle tree does not strand much memory.
const recordChunkBytes = 64 << 10

// Own gives an unowned record — the Put boundary's, whose value bytes
// travel beside it as val in the caller's reused buffer — what it must
// keep. A record with no value keeps nothing: an accounting-mode put
// takes nothing from the arena. Otherwise the value is copied into an
// arena allocation behind a recordBytes. resident is the stored record
// r overwrites, or nil; r takes over its recordBytes.
func (a *RecordArena) Own(r *Record, val []byte, resident *Record) {
	if len(val) == 0 {
		return
	}
	var e *recordBytes
	if resident != nil {
		e = resident.ext
	}
	if e == nil {
		e = a.exts.New()
	}
	e.b = a.Alloc(len(val))
	copy(e.b, val)
	r.ext = e
}

// zeroPad backs AppendZeros.
var zeroPad [4096]byte

// AppendZeros appends n zero bytes to out — the engines' codecs use it
// to zero-fill accounting-mode values without allocating per entry.
func AppendZeros(out []byte, n int) []byte {
	for n > len(zeroPad) {
		out = append(out, zeroPad[:]...)
		n -= len(zeroPad)
	}
	return append(out, zeroPad[:n]...)
}

// AppendRecord appends one serialized record — the entry format both
// trees' images share: keyLen(2) + valueLen(4) + seq(8, tombstone bit
// 63) + key + value (zeros in accounting mode).
func AppendRecord(out []byte, r *Record) []byte {
	var hdr [RecordOverhead]byte
	binary.LittleEndian.PutUint16(hdr[0:], kv.KeySize)
	vl := int(r.vlen)
	binary.LittleEndian.PutUint32(hdr[2:], uint32(vl))
	seq := r.seq
	if r.del {
		seq |= 1 << 63
	}
	binary.LittleEndian.PutUint64(hdr[6:], seq)
	out = append(out, hdr[:]...)
	var kb [kv.KeySize]byte
	out = append(out, r.Key(&kb)...)
	if val := r.Val(); val != nil {
		out = append(out, val...)
	} else {
		out = AppendZeros(out, vl)
	}
	return out
}

// ParseRecord decodes one owned record, returning it and the bytes
// consumed (0 on corruption, a key of another width than kv.KeySize
// included). Its value bytes, if it has any, are copied into one
// allocation behind a recordBytes of its own.
func ParseRecord(data []byte) (Record, int) {
	if len(data) < RecordOverhead {
		return Record{}, 0
	}
	kl := int(binary.LittleEndian.Uint16(data[0:]))
	vl := int(binary.LittleEndian.Uint32(data[2:]))
	seq := binary.LittleEndian.Uint64(data[6:])
	end := RecordOverhead + kv.KeySize + vl
	if kl != kv.KeySize || end > len(data) {
		return Record{}, 0
	}
	r := MakeRecord(data[RecordOverhead:RecordOverhead+kv.KeySize], seq&^(1<<63), vl, seq&(1<<63) != 0)
	if vl > 0 {
		r.ext = &recordBytes{b: bytes.Clone(data[end-vl : end])}
	}
	return r, end
}
