// Package sstable implements the sorted-string-table file format used by
// the LSM engine: page-aligned data blocks of fixed-header entries, an
// index block, a Bloom filter, and a footer.
//
// Every table keeps a compact in-memory side index (key arena + offsets +
// per-entry metadata), which serves two purposes: it is the block index
// and filter a real engine would cache, and it lets the simulation run in
// accounting-only mode — where value bytes are charged to the device but
// not materialized — without losing merge or lookup correctness.
package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// entryHeaderSize is the fixed on-disk per-entry header:
// flags(1) + keyLen(2) + valueLen(4) + seq(8).
const entryHeaderSize = 15

// footerSize holds counts and section offsets; fixed one page in the
// on-disk layout for simplicity.
const footerMagic = 0x5354424C // "STBL"

// EncodedEntrySize returns the on-disk bytes entry e occupies in a data
// block.
func EncodedEntrySize(e *kv.Entry) int {
	vl := e.ValueLen
	if e.Value != nil {
		vl = len(e.Value)
	}
	return entryHeaderSize + len(e.Key) + vl
}

// blockMeta locates one data block inside the file.
type blockMeta struct {
	firstEntry int32 // index of the block's first entry
	startPage  int32 // file page where the block starts
	pages      int32 // block length in pages
}

// Table is an immutable on-disk sorted table plus its in-memory side
// index.
type Table struct {
	ID       uint64
	file     *extfs.File
	fileName string

	// Side index (always in memory).
	keyArena   []byte
	keyOffsets []uint32 // len = numEntries+1
	seqs       []uint64
	vlens      []uint32
	dels       []byte // 1 = tombstone
	blocks     []blockMeta
	bloom      *Bloom
	// valArena/valOffsets hold the value bytes in content mode (nil in
	// accounting mode), arena-packed like the keys. Compactions merge
	// through the side index, so rebuilding well-formed blocks for the
	// output tables needs the values here.
	valArena   []byte
	valOffsets []uint32 // len = numEntries+1

	numEntries int
	sizeBytes  int64 // logical bytes (payload + metadata sections)
	filePages  int64
	pageSize   int
	content    bool
}

// NumEntries returns the number of entries.
func (t *Table) NumEntries() int { return t.numEntries }

// SizeBytes returns the table's logical size in bytes.
func (t *Table) SizeBytes() int64 { return t.sizeBytes }

// FilePages returns the on-device footprint in pages.
func (t *Table) FilePages() int64 { return t.filePages }

// FileName returns the backing file name.
func (t *Table) FileName() string { return t.fileName }

// Smallest returns the first (smallest) key.
func (t *Table) Smallest() []byte { return t.key(0) }

// Largest returns the last (largest) key.
func (t *Table) Largest() []byte { return t.key(t.numEntries - 1) }

func (t *Table) key(i int) []byte {
	return t.keyArena[t.keyOffsets[i]:t.keyOffsets[i+1]]
}

func (t *Table) entryAt(i int) kv.Entry {
	e := kv.Entry{
		Key:      t.key(i),
		ValueLen: int(t.vlens[i]),
		Seq:      t.seqs[i],
		Deleted:  t.dels[i] == 1,
	}
	if t.valOffsets != nil && t.dels[i] != 1 {
		e.Value = t.valArena[t.valOffsets[i]:t.valOffsets[i+1]]
	}
	return e
}

// search returns the index of the first entry with key >= target
// (open-coded binary search; this sits under every Get and probe).
func (t *Table) search(target []byte) int {
	return t.searchRange(0, t.numEntries, target)
}

// searchRange binary-searches [lo, hi) for the first key >= target,
// decomposing the target into comparison words once per search.
func (t *Table) searchRange(lo, hi int, target []byte) int {
	wHi, wLo, fast := kv.DecomposeKey(target)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var c int
		if mk := t.key(mid); fast && len(mk) == kv.KeySize {
			c = kv.CompareKeyWords(mk, wHi, wLo)
		} else {
			c = kv.CompareKeys(mk, target)
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Overlaps reports whether the table's key range intersects [lo, hi]
// (inclusive). A nil bound is unbounded.
func (t *Table) Overlaps(lo, hi []byte) bool {
	if t.numEntries == 0 {
		return false
	}
	if hi != nil && kv.CompareKeys(t.Smallest(), hi) > 0 {
		return false
	}
	if lo != nil && kv.CompareKeys(t.Largest(), lo) < 0 {
		return false
	}
	return true
}

// MayContain consults the Bloom filter only (no I/O). In accounting mode
// the filter is materialized here, on the table's first probe, from the
// in-memory side index — its bits are a pure function of the key set, so
// the lazy build answers exactly like an eager one while write-only runs
// never pay for filters on tables that die unprobed.
func (t *Table) MayContain(key []byte) bool {
	if t.bloom == nil {
		bloom := NewBloom(t.numEntries)
		for i := 0; i < t.numEntries; i++ {
			bloom.Add(t.key(i))
		}
		t.bloom = bloom
	}
	return t.bloom.MayContain(key)
}

// Get looks up key, charging the device for the data-block read when the
// Bloom filter passes. found=false with no I/O charge is the fast
// negative path. In content mode the value is parsed from the block
// bytes; in accounting mode the value is nil (metadata only).
func (t *Table) Get(now sim.Duration, key []byte) (done sim.Duration, e kv.Entry, found bool, err error) {
	done = now
	if !t.MayContain(key) {
		return done, e, false, nil
	}
	i := t.search(key)
	if i >= t.numEntries || !bytes.Equal(t.key(i), key) {
		// Bloom false positive: a real engine would still read the
		// block to find out; charge that read.
		bi := t.blockOf(min(i, t.numEntries-1))
		b := t.blocks[bi]
		done, err = t.file.ReadAt(now, int64(b.startPage), int(b.pages), nil)
		return done, e, false, err
	}
	bi := t.blockOf(i)
	b := t.blocks[bi]
	var buf []byte
	if t.content {
		buf = make([]byte, int(b.pages)*t.pageSize)
	}
	done, err = t.file.ReadAt(now, int64(b.startPage), int(b.pages), buf)
	if err != nil {
		return done, e, false, err
	}
	e = t.entryAt(i)
	if t.content {
		v, perr := blockEntryValue(buf, i-int(b.firstEntry))
		if perr != nil {
			return done, e, false, perr
		}
		e.Value = v
	}
	return done, e, true, nil
}

// blockEntryValue walks a serialized data block and returns a copy of the
// value of the idx-th entry in it.
func blockEntryValue(block []byte, idx int) ([]byte, error) {
	off := 0
	for i := 0; ; i++ {
		if off+entryHeaderSize > len(block) {
			return nil, fmt.Errorf("sstable: corrupt block (entry %d beyond block end)", i)
		}
		kl := int(binary.LittleEndian.Uint16(block[off+1:]))
		vl := int(binary.LittleEndian.Uint32(block[off+3:]))
		if off+entryHeaderSize+kl+vl > len(block) {
			return nil, fmt.Errorf("sstable: corrupt block (entry %d overruns block)", i)
		}
		if i == idx {
			v := make([]byte, vl)
			copy(v, block[off+entryHeaderSize+kl:off+entryHeaderSize+kl+vl])
			return v, nil
		}
		off += entryHeaderSize + kl + vl
	}
}

// blockOf returns the index of the block containing entry i.
func (t *Table) blockOf(i int) int {
	lo, hi := 0, len(t.blocks)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(t.blocks[mid].firstEntry) <= i {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// ReadPages charges a bulk read of n file pages starting at pageOff,
// returning the completion time. Compaction jobs use it to account their
// input scans while iterating the in-memory side index.
func (t *Table) ReadPages(now sim.Duration, pageOff int64, n int) (sim.Duration, error) {
	return t.file.ReadAt(now, pageOff, n, nil)
}

// Iterator returns an in-memory iterator over all entries (metadata
// only; no I/O is charged — compaction jobs charge bulk reads
// explicitly).
func (t *Table) Iterator() kv.Iterator {
	return &tableIter{t: t, i: -1}
}

// IteratorFrom returns an iterator positioned before the first entry with
// key >= start.
func (t *Table) IteratorFrom(start []byte) kv.Iterator {
	return &tableIter{t: t, i: t.search(start) - 1}
}

// ReadRange charges the device reads for the data blocks covering entry
// indexes [first, last], at their real file offsets, and returns the
// completion time. Range scans use it to account their I/O.
func (t *Table) ReadRange(now sim.Duration, first, last int) (sim.Duration, error) {
	if t.numEntries == 0 || first > last || first >= t.numEntries {
		return now, nil
	}
	if last >= t.numEntries {
		last = t.numEntries - 1
	}
	b0 := t.blockOf(first)
	b1 := t.blockOf(last)
	start := t.blocks[b0].startPage
	var pages int32
	for b := b0; b <= b1; b++ {
		pages += t.blocks[b].pages
	}
	return t.file.ReadAt(now, int64(start), int(pages), nil)
}

// EntryIndex returns the index of the first entry with key >= target.
func (t *Table) EntryIndex(target []byte) int { return t.search(target) }

// KeyAt returns entry i's key (aliasing the table's arena; callers must
// not mutate or retain it past the table's lifetime).
func (t *Table) KeyAt(i int) []byte { return t.key(i) }

// SeqAt returns entry i's sequence number.
func (t *Table) SeqAt(i int) uint64 { return t.seqs[i] }

// SearchFrom returns the index of the first entry in [start, NumEntries)
// with key >= target — the galloping primitive of the bulk merge path.
func (t *Table) SearchFrom(start int, target []byte) int {
	return t.searchRange(start, t.numEntries, target)
}

type tableIter struct {
	t *Table
	i int
	e kv.Entry
}

func (it *tableIter) Next() bool {
	it.i++
	if it.i >= it.t.numEntries {
		return false
	}
	it.e = it.t.entryAt(it.i)
	return true
}

func (it *tableIter) Entry() *kv.Entry { return &it.e }
