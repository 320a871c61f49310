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

// blockMeta locates one data block inside the file.
type blockMeta struct {
	firstEntry int32 // index of the block's first entry
	startPage  int32 // file page where the block starts
	pages      int32 // block length in pages
}

// Table is an immutable on-disk sorted table plus its in-memory side
// index.
type Table struct {
	// What a point lookup reads first, kept together at the front of
	// the struct: the range check, the filter, the key arena.
	//
	// fixed is set when the table is non-empty and every key is
	// kv.KeySize bytes: key i then sits at i*kv.KeySize in the arena, and
	// the bounds' comparison words are valid.
	fixed        bool
	minHi, minLo uint64 // Smallest's words
	maxHi, maxLo uint64 // Largest's words
	numEntries   int
	bloom        Bloom // bits nil until built (see mayContain)
	keyArena     []byte

	ID       uint64
	file     *extfs.File
	fileName string

	// Side index (always in memory).
	keyOffsets []uint32 // len = numEntries+1
	seqs       []uint64
	vlens      []uint32
	dels       []byte // 1 = tombstone
	blocks     []blockMeta
	// valArena/valOffsets hold the value bytes in content mode (nil in
	// accounting mode), arena-packed like the keys. Compactions merge
	// through the side index, so rebuilding well-formed blocks for the
	// output tables needs the values here.
	valArena   []byte
	valOffsets []uint32 // len = numEntries+1

	sizeBytes int64 // logical bytes (payload + metadata sections)
	filePages int64
	pageSize  int
	content   bool
}

// seal records the key-width shape of a finished side index. mixed
// reports that some key is not kv.KeySize bytes; builders track it key
// by key, because the arena length cannot tell (8- and 24-byte keys in
// equal numbers fill the same arena as 16-byte ones).
func (t *Table) seal(mixed bool) {
	t.fixed = t.numEntries > 0 && !mixed
	if t.fixed {
		t.minHi, t.minLo, _ = kv.DecomposeKey(t.key(0))
		t.maxHi, t.maxLo, _ = kv.DecomposeKey(t.key(t.numEntries - 1))
	}
}

// Probe is a point-lookup key prepared once for every table a lookup
// visits: the key, its comparison words when it is kv.KeySize bytes, and
// its Bloom hash.
type Probe struct {
	key    []byte
	hi, lo uint64
	fixed  bool
	hash   uint64
}

// NewProbe prepares key for Table.Get and Table.Position. The probe
// aliases key.
func NewProbe(key []byte) Probe {
	p := searchProbe(key)
	p.hash = hash64(key)
	return p
}

// searchProbe is a probe without its Bloom hash, for searches that never
// consult the filter.
func searchProbe(key []byte) Probe {
	hi, lo, fixed := kv.DecomposeKey(key)
	return Probe{key: key, hi: hi, lo: lo, fixed: fixed}
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
	if t.fixed {
		o := i * kv.KeySize
		return t.keyArena[o : o+kv.KeySize]
	}
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

// search returns the index of the first entry with key >= the probe's
// key (open-coded binary search; this sits under every Get and probe).
func (t *Table) search(p *Probe) int {
	return t.searchRange(0, t.numEntries, p)
}

// searchRange binary-searches [lo, hi) for the first key >= the probe's
// key. A fixed-width table searched with a fixed-width probe compares
// words read at a stride of kv.KeySize; every other pairing compares
// each key by width.
func (t *Table) searchRange(lo, hi int, p *Probe) int {
	if t.fixed && p.fixed {
		arena := t.keyArena
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if kv.CompareKeyWords(arena[mid*kv.KeySize:], p.hi, p.lo) < 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		var c int
		if mk := t.key(mid); p.fixed && len(mk) == kv.KeySize {
			c = kv.CompareKeyWords(mk, p.hi, p.lo)
		} else {
			c = kv.CompareKeys(mk, p.key)
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Position places the probe against the table's inclusive key range:
// <0 when it sorts before Smallest, >0 after Largest, 0 inside. A
// fixed-width probe against a fixed-width table compares only the bound
// words stored at seal time. An empty table places every probe after it.
func (t *Table) Position(p *Probe) int {
	if t.numEntries == 0 {
		return 1
	}
	if t.fixed && p.fixed {
		switch {
		case p.hi > t.maxHi || p.hi == t.maxHi && p.lo > t.maxLo:
			return 1
		case p.hi < t.minHi || p.hi == t.minHi && p.lo < t.minLo:
			return -1
		}
		return 0
	}
	if kv.CompareKeys(t.Largest(), p.key) < 0 {
		return 1
	}
	if kv.CompareKeys(t.Smallest(), p.key) > 0 {
		return -1
	}
	return 0
}

// mayContain consults the Bloom filter with the probe's hash (no I/O).
// In accounting mode the filter is materialized here, on the table's
// first probe, from the in-memory side index — its bits are a pure
// function of the key set, so the lazy build answers exactly like an
// eager one while write-only runs never pay for filters on tables that
// die unprobed.
func (t *Table) mayContain(p *Probe) bool {
	if t.bloom.bits == nil {
		t.bloom = newBloom(t.numEntries)
		for i := 0; i < t.numEntries; i++ {
			t.bloom.Add(t.key(i))
		}
	}
	return t.bloom.mayContain(p.hash)
}

// Get looks up the probe's key, charging the device for the data-block
// read when the Bloom filter passes. found=false with no I/O charge is
// the fast negative path. In content mode the value is parsed from the
// block bytes; in accounting mode the value is nil (metadata only).
func (t *Table) Get(now sim.Duration, p *Probe) (done sim.Duration, e kv.Entry, found bool, err error) {
	done = now
	if !t.mayContain(p) {
		return done, e, false, nil
	}
	i := t.search(p)
	if i >= t.numEntries || !bytes.Equal(t.key(i), p.key) {
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
	p := searchProbe(start)
	return &tableIter{t: t, i: t.search(&p) - 1}
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
func (t *Table) EntryIndex(target []byte) int {
	p := searchProbe(target)
	return t.search(&p)
}

// KeyAt returns entry i's key (aliasing the table's arena; callers must
// not mutate or retain it past the table's lifetime).
func (t *Table) KeyAt(i int) []byte { return t.key(i) }

// SeqAt returns entry i's sequence number.
func (t *Table) SeqAt(i int) uint64 { return t.seqs[i] }

// SearchFrom returns the index of the first entry in [start, NumEntries)
// with key >= target — the galloping primitive of the bulk merge path.
func (t *Table) SearchFrom(start int, target []byte) int {
	p := searchProbe(target)
	return t.searchRange(start, t.numEntries, &p)
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
