// Package kv defines the types shared by the storage engines (LSM,
// B+Tree, Bε-tree): keys, entries, iterators, the engine interface the
// benchmark harness drives (Engine: the whole operation set, with no
// optional surface beside it), and deterministic value synthesis used at
// benchmark scale (where value bytes are accounted but not retained).
package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ptsbench/internal/sim"
)

// KeySize is the fixed key size used by the paper's workload (16-byte
// keys, §3.2). Engines accept arbitrary keys; the workload generator
// produces keys of this size.
const KeySize = 16

// EncodeKey produces the canonical 16-byte big-endian key for a numeric
// key id. Big-endian preserves numeric order under bytes.Compare.
func EncodeKey(id uint64) []byte {
	k := make([]byte, KeySize)
	binary.BigEndian.PutUint64(k[8:], id)
	return k
}

// AppendKey writes the canonical key for id into dst (which must be
// KeySize long), avoiding an allocation.
func AppendKey(dst []byte, id uint64) {
	for i := 0; i < 8; i++ {
		dst[i] = 0
	}
	binary.BigEndian.PutUint64(dst[8:], id)
}

// DecodeKey recovers the numeric id from a canonical key.
func DecodeKey(k []byte) (uint64, error) {
	if len(k) != KeySize {
		return 0, fmt.Errorf("kv: key length %d, want %d", len(k), KeySize)
	}
	return binary.BigEndian.Uint64(k[8:]), nil
}

// SynthValue fills dst with a deterministic pattern derived from the key
// and sequence number. The same (key, seq, len) always produces the same
// bytes, so correctness tests can verify reads without storing values.
func SynthValue(dst []byte, key []byte, seq uint64) {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	h ^= seq * 0x9E3779B97F4A7C15
	for i := range dst {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		dst[i] = byte(h)
	}
}

// Entry is a versioned key-value record. A nil Value with Deleted set is
// a tombstone.
//
// ValueLen is the accounted payload size: at benchmark scale the engines
// run in accounting-only mode where Value is nil but ValueLen still
// records how many bytes the value occupies on device. When Value is
// non-nil, ValueLen == len(Value).
type Entry struct {
	Key      []byte
	Value    []byte
	ValueLen int
	Seq      uint64
	Deleted  bool
}

// CompareKeys orders two keys like bytes.Compare, with a branch-light
// fast path for the workload's fixed 16-byte keys (two big-endian word
// compares instead of a generic memcmp call) — key comparison is the
// single hottest operation in the merge, probe and memtable paths.
func CompareKeys(a, b []byte) int {
	if len(a) == KeySize && len(b) == KeySize {
		ah, bh := binary.BigEndian.Uint64(a), binary.BigEndian.Uint64(b)
		if ah != bh {
			if ah < bh {
				return -1
			}
			return 1
		}
		al, bl := binary.BigEndian.Uint64(a[8:]), binary.BigEndian.Uint64(b[8:])
		if al != bl {
			if al < bl {
				return -1
			}
			return 1
		}
		return 0
	}
	return bytes.Compare(a, b)
}

// DecomposeKey splits a fixed-size key into two big-endian words whose
// pairwise comparison reproduces bytes.Compare. Search loops call this
// once per lookup and then compare raw words per probe. ok is false for
// keys of any other length (callers fall back to CompareKeys).
func DecomposeKey(k []byte) (hi, lo uint64, ok bool) {
	if len(k) != KeySize {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(k), binary.BigEndian.Uint64(k[8:]), true
}

// CompareKeyWords compares key k — which must be exactly KeySize bytes
// (callers guard the length) — against the decomposed words (hi, lo),
// returning <0, 0, >0 like bytes.Compare(k, original).
func CompareKeyWords(k []byte, hi, lo uint64) int {
	kh := binary.BigEndian.Uint64(k)
	if kh != hi {
		if kh < hi {
			return -1
		}
		return 1
	}
	kl := binary.BigEndian.Uint64(k[8:])
	if kl != lo {
		if kl < lo {
			return -1
		}
		return 1
	}
	return 0
}

// Compare orders entries by key ascending, then by sequence descending
// (newest first), the standard LSM internal ordering.
func Compare(a, b *Entry) int {
	if c := CompareKeys(a.Key, b.Key); c != 0 {
		return c
	}
	switch {
	case a.Seq > b.Seq:
		return -1
	case a.Seq < b.Seq:
		return 1
	default:
		return 0
	}
}

// Iterator walks entries in key order. It starts positioned before the
// first entry; Next advances and reports whether an entry is available.
type Iterator interface {
	Next() bool
	Entry() *Entry
}

// Engine is the one operation set every engine, replica group and
// sharded store implements, and the one the harness, the serving layer,
// the conformance suite and the differential checker drive. All methods
// thread virtual time: they accept the submission time and return the
// completion time.
type Engine interface {
	// Put writes a key-value pair. valueLen is used when value is nil
	// (accounting-only mode at benchmark scale).
	Put(now sim.Duration, key, value []byte, valueLen int) (sim.Duration, error)
	// Get reads a key. The returned value is nil in accounting-only
	// mode even when found is true.
	Get(now sim.Duration, key []byte) (done sim.Duration, value []byte, found bool, err error)
	// Delete removes a key: later Gets and Scans do not see it.
	Delete(now sim.Duration, key []byte) (sim.Duration, error)
	// Scan returns up to limit live entries with keys >= start, in key
	// order.
	Scan(now sim.Duration, start []byte, limit int) (sim.Duration, []Entry, error)
	// FlushAll persists all buffered state (used at checkpoints and
	// shutdown) and returns when the device is quiet.
	FlushAll(now sim.Duration) (sim.Duration, error)
	// Quiesce pumps background work (flushes, compactions, checkpoints)
	// to completion and returns the advanced virtual time.
	Quiesce(now sim.Duration) sim.Duration
	// Stats returns cumulative engine counters.
	Stats() EngineStats
	// DiskUsageBytes reports the engine's current on-device footprint,
	// for the paper's space-amplification metric.
	DiskUsageBytes() int64
}

// EngineStats are cumulative application-level counters. The harness
// combines UserBytesWritten with the block device's counters to compute
// WA-A exactly as the paper defines it (§2.1.3).
type EngineStats struct {
	Puts             int64
	Gets             int64
	UserBytesWritten int64 // sum of key+value payload accepted from the app
	UserBytesRead    int64
	StallTime        sim.Duration // time Puts spent blocked on backpressure
}

// Sub returns s - o for interval deltas.
func (s EngineStats) Sub(o EngineStats) EngineStats {
	return EngineStats{
		Puts:             s.Puts - o.Puts,
		Gets:             s.Gets - o.Gets,
		UserBytesWritten: s.UserBytesWritten - o.UserBytesWritten,
		UserBytesRead:    s.UserBytesRead - o.UserBytesRead,
		StallTime:        s.StallTime - o.StallTime,
	}
}

// Add returns s + o, for aggregating the shards of a partitioned store.
func (s EngineStats) Add(o EngineStats) EngineStats {
	return EngineStats{
		Puts:             s.Puts + o.Puts,
		Gets:             s.Gets + o.Gets,
		UserBytesWritten: s.UserBytesWritten + o.UserBytesWritten,
		UserBytesRead:    s.UserBytesRead + o.UserBytesRead,
		StallTime:        s.StallTime + o.StallTime,
	}
}

// Target is a search key decoded once for a whole descent: its bytes
// and, when it is KeySize bytes, the two words (DecomposeKey) every
// level's binary search compares instead of re-decoding the key.
type Target struct {
	Key    []byte
	Hi, Lo uint64
	Fast   bool // Key is KeySize bytes; Hi and Lo are its words
}

// NewTarget decodes k for a descent.
func NewTarget(k []byte) Target {
	hi, lo, ok := DecomposeKey(k)
	return Target{Key: k, Hi: hi, Lo: lo, Fast: ok}
}

// SepCache caches the big-endian word decomposition of a sorted set of
// separator keys while every separator is a fixed-size key, so a
// descent's binary search probes raw uint64 pairs instead of re-decoding
// separator bytes on every comparison. A separator's two words sit side
// by side, so a probe loads one cache line, not one per word. The zero
// value is an inactive cache (UpperBound compares the separator bytes);
// Refresh activates it. The B-tree-family engines share it for their
// interior nodes — the separators only change on splits, so the cache
// refresh is off the hot path.
type SepCache struct {
	words []sepWords
	fast  bool
}

type sepWords struct{ hi, lo uint64 }

// Refresh rebuilds the cache from the full separator set.
func (c *SepCache) Refresh(seps [][]byte) {
	c.words = c.words[:0]
	for _, sep := range seps {
		hi, lo, ok := DecomposeKey(sep)
		if !ok {
			c.fast = false
			return
		}
		c.words = append(c.words, sepWords{hi, lo})
	}
	c.fast = true
}

// Insert splices one separator's words in at idx (a full Refresh per
// child insert would re-decode the whole fanout on every leaf split).
// A non-fixed-size separator deactivates the cache.
func (c *SepCache) Insert(idx int, sep []byte) {
	if !c.fast {
		return
	}
	hi, lo, ok := DecomposeKey(sep)
	if !ok {
		c.fast = false
		c.words = c.words[:0]
		return
	}
	c.words = append(c.words, sepWords{})
	copy(c.words[idx+1:], c.words[idx:])
	c.words[idx] = sepWords{hi, lo}
}

// UpperBound returns the number of separators in seps — the set the
// cache was built from — that are <= t, which is exactly the child index
// a B-tree descent takes (a key equal to a separator goes right). It
// probes the cached words when both the cache and t have them, and
// compares separator bytes otherwise.
func (c *SepCache) UpperBound(seps [][]byte, t Target) int {
	if t.Fast && c.fast {
		w := c.words
		lo, hi := 0, len(w)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if s := w[mid]; s.hi < t.Hi || (s.hi == t.Hi && s.lo <= t.Lo) {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	lo, hi := 0, len(seps)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var cmp int
		if sk := seps[mid]; t.Fast && len(sk) == KeySize {
			cmp = CompareKeyWords(sk, t.Hi, t.Lo)
		} else {
			cmp = CompareKeys(sk, t.Key)
		}
		if cmp <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
