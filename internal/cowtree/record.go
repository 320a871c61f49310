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
// length, sequence and tombstone flag. A kv.KeySize key — every key the
// workloads generate — is held only as its two big-endian words (hi,
// lo): a binary-search probe compares them without leaving the record,
// and an accounting-mode record owns no bytes at all. A key of any
// other width (klen bytes), and content-mode value bytes, live out of
// line in ext. The record stays 40 bytes: the arrays the trees keep
// allocating for leaves and buffers are what a larger one would cost.
// (Keys are at most 65,535 bytes, the limit of every image and journal
// codec.)
type Record struct {
	hi, lo uint64
	seq    uint64
	ext    *recordBytes
	vlen   int32
	klen   uint16
	del    bool
}

// recordBytes is a record's out-of-line storage, one arena allocation:
// the key bytes when the key is not kv.KeySize long, then the value
// bytes in content mode. A stored record owns its recordBytes alone, so
// a record that replaces it may reuse it.
type recordBytes struct{ b []byte }

// MakeRecord builds an unowned record for key: its words when it is a
// kv.KeySize key, no bytes. The key's bytes travel beside it until
// RecordArena.Own copies what must be kept.
func MakeRecord(key []byte, seq uint64, vlen int, del bool) Record {
	hi, lo, _ := kv.DecomposeKey(key)
	return Record{hi: hi, lo: lo, seq: seq, vlen: int32(vlen), klen: uint16(len(key)), del: del}
}

// Seq returns the record's sequence number.
func (r *Record) Seq() uint64 { return r.seq }

// Del reports whether the record is a tombstone.
func (r *Record) Del() bool { return r.del }

// Vlen returns the accounted value length.
func (r *Record) Vlen() int { return int(r.vlen) }

// Size returns the record's serialized footprint.
func (r *Record) Size() int {
	return RecordOverhead + int(r.klen) + int(r.vlen)
}

// inline reports whether the key is held in the words.
func (r *Record) inline() bool { return r.klen == kv.KeySize }

// outKey returns how many key bytes the record keeps out of line.
func (r *Record) outKey() int {
	if r.inline() {
		return 0
	}
	return int(r.klen)
}

// Key returns the key: buf filled from the words when the key is
// inline, the out-of-line bytes otherwise.
func (r *Record) Key(buf *[kv.KeySize]byte) []byte {
	if r.inline() {
		binary.BigEndian.PutUint64(buf[:8], r.hi)
		binary.BigEndian.PutUint64(buf[8:], r.lo)
		return buf[:]
	}
	return r.wideKey()
}

// wideKey returns the out-of-line bytes of a key that is not inline.
func (r *Record) wideKey() []byte {
	if r.ext == nil {
		return nil // the empty key, no value
	}
	return r.ext.b[:r.klen]
}

// Val returns an owned record's value bytes, or nil when it carries
// none (accounting mode, tombstones).
func (r *Record) Val() []byte {
	if r.ext == nil || len(r.ext.b) == r.outKey() {
		return nil
	}
	return r.ext.b[r.outKey():]
}

// Target returns the key as a search target, its bytes in buf when the
// key is inline.
func (r *Record) Target(buf *[kv.KeySize]byte) kv.Target {
	return kv.Target{Key: r.Key(buf), Hi: r.hi, Lo: r.lo, Fast: r.inline()}
}

// Is reports whether the record's key is t's.
func (r *Record) Is(t *kv.Target) bool {
	if r.inline() != t.Fast {
		return false
	}
	if t.Fast {
		return r.hi == t.Hi && r.lo == t.Lo
	}
	return bytes.Equal(r.wideKey(), t.Key)
}

// CompareKey orders the record's key against k like bytes.Compare, on
// the words when both are kv.KeySize keys.
func (r *Record) CompareKey(k []byte) int {
	if r.inline() && len(k) == kv.KeySize {
		return -kv.CompareKeyWords(k, r.hi, r.lo)
	}
	var buf [kv.KeySize]byte
	return bytes.Compare(r.Key(&buf), k)
}

// CompareRecords orders two records by key like bytes.Compare, on the
// words when both keys are inline.
func CompareRecords(a, b *Record) int {
	if a.inline() && b.inline() {
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
	var buf [kv.KeySize]byte
	return a.CompareKey(b.Key(&buf))
}

// SearchRecords returns the index of the first record in rs with
// key >= t. Inline keys are compared on their words, so a probe touches
// nothing beyond the record it reads.
func SearchRecords(rs []Record, t kv.Target) int {
	lo, hi := 0, len(rs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		r := &rs[mid]
		var less bool
		if t.Fast && r.klen == kv.KeySize {
			less = r.hi < t.Hi || (r.hi == t.Hi && r.lo < t.Lo)
		} else {
			less = r.CompareKey(t.Key) < 0
		}
		if less {
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
// non-nil ra r is unowned — t.Key and val are the caller's reused
// buffers beside it — and ra.Own copies only what must be kept; with a
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
		ra.Own(&r, t.Key, val, resident)
	}
	if resident != nil {
		*resident = r
		return rs, delta
	}
	return pool.GrowInsert(rs, i, r), delta
}

// RecordArena backs what stored records keep: the byte arena (which the
// trees also draw separator copies from) and the arena of recordBytes
// headers that point into it. Retained bytes are immortal — the engines
// never free a key, ids and nodes are never reused — so the byte arena
// turns the dominant steady-state allocation, one heap object per fresh
// key, into one chunk per recordChunkBytes.
type RecordArena struct {
	arena.Arena[byte]
	exts arena.Arena[recordBytes]
}

// recordChunkBytes is a tree's byte-arena chunk, which Core.setup sets:
// large enough to amortize the chunk allocation to noise, small enough
// that a mostly-idle tree does not strand much memory.
const recordChunkBytes = 64 << 10

// Own gives an unowned record — the Put boundary's, whose key and value
// bytes travel beside it as key and val in the caller's reused buffers —
// what it must keep. An inline key with no value keeps nothing: an
// accounting-mode put of a kv.KeySize key takes nothing from the arena.
// Otherwise the out-of-line key and the value are copied into one arena
// allocation behind a recordBytes. resident is the stored record r
// overwrites, or nil; r takes over its recordBytes, and with no value to
// keep, its key bytes too, so such an overwrite allocates nothing.
func (a *RecordArena) Own(r *Record, key, val []byte, resident *Record) {
	out := r.outKey()
	if out+len(val) == 0 {
		return
	}
	var e *recordBytes
	if resident != nil {
		e = resident.ext
	}
	if e != nil && len(val) == 0 {
		e.b = e.b[:out:out]
		r.ext = e
		return
	}
	if e == nil {
		e = a.exts.New()
	}
	e.b = a.Alloc(out + len(val))
	copy(e.b, key[:out])
	copy(e.b[out:], val)
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
	binary.LittleEndian.PutUint16(hdr[0:], r.klen)
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
// consumed (0 on corruption). Its out-of-line key and value bytes, if it
// has any, are copied into one allocation behind a recordBytes of its
// own.
func ParseRecord(data []byte) (Record, int) {
	if len(data) < RecordOverhead {
		return Record{}, 0
	}
	kl := int(binary.LittleEndian.Uint16(data[0:]))
	vl := int(binary.LittleEndian.Uint32(data[2:]))
	seq := binary.LittleEndian.Uint64(data[6:])
	if RecordOverhead+kl+vl > len(data) {
		return Record{}, 0
	}
	end := RecordOverhead + kl + vl
	r := MakeRecord(data[RecordOverhead:RecordOverhead+kl], seq&^(1<<63), vl, seq&(1<<63) != 0)
	if start := RecordOverhead + kl - r.outKey(); start < end {
		r.ext = &recordBytes{b: bytes.Clone(data[start:end])}
	}
	return r, end
}
