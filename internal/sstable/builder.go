package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// Builder accumulates sorted entries and produces a FileImage: the full
// on-disk layout of an SSTable, ready to be written out in chunks by a
// flush or compaction job. Keeping the image separate from the write lets
// jobs spread the device I/O over virtual time, which is what creates the
// realistic interference between compaction and foreground traffic.
type Builder struct {
	pageSize    int
	targetBlock int // data block payload target, bytes
	content     bool

	// Side index under construction.
	keyArena   []byte
	keyOffsets []uint32
	seqs       []uint64
	vlens      []uint32
	dels       []byte
	blocks     []blockMeta
	valArena   []byte   // content mode: retained value bytes, packed
	valOffsets []uint32 // content mode: len = entries+1

	curBlockBytes int   // payload bytes in the current block
	curBlockFirst int32 // first entry index of current block
	nextPage      int32 // next file page to be assigned
	lastKey       []byte
	mixed         bool // some key is not kv.KeySize bytes (see Table.seal)

	data      []byte // serialized data blocks (content mode only)
	dataBytes int64  // logical payload bytes
}

// DefaultBlockBytes matches a common SSTable block target (32 KiB).
const DefaultBlockBytes = 32 << 10

// NewBuilder creates a builder. pageSize is the device page size; content
// selects whether real bytes are produced. entryHint is the expected
// entry count (0 if unknown): the side index under construction is
// presized for that many entries (16-byte keys assumed — a high estimate
// just wastes some slack), which converts the O(log n) reallocation churn
// of appending into a single right-sized allocation per column. Flush and
// compaction jobs know their input entry counts exactly, so their builder
// slices never regrow.
func NewBuilder(pageSize, targetBlockBytes int, content bool, entryHint int) *Builder {
	if targetBlockBytes <= 0 {
		targetBlockBytes = DefaultBlockBytes
	}
	if entryHint < 0 {
		entryHint = 0
	}
	b := &Builder{
		pageSize:    pageSize,
		targetBlock: targetBlockBytes,
		content:     content,
	}
	if entryHint > 0 {
		b.keyArena = make([]byte, 0, entryHint*16)
		b.keyOffsets = append(make([]uint32, 0, entryHint+1), 0)
		b.seqs = make([]uint64, 0, entryHint)
		b.vlens = make([]uint32, 0, entryHint)
		b.dels = make([]byte, 0, entryHint)
	} else {
		b.keyOffsets = []uint32{0}
	}
	if content {
		b.data = (*contentBufPool.Get().(*[]byte))[:0]
	}
	return b
}

// contentBufPool recycles the serialized-data scratch of content-mode
// builders (block buffers): Finish copies the laid-out bytes into the
// final image and returns the scratch here. Pointers to slices are
// pooled (not slice values) so Put/Get do not box a fresh interface
// allocation per cycle.
var contentBufPool = sync.Pool{
	New: func() any { return new([]byte) },
}

// NumEntries returns the number of entries added so far.
func (b *Builder) NumEntries() int { return len(b.seqs) }

// EstimatedBytes returns the approximate final logical size.
func (b *Builder) EstimatedBytes() int64 { return b.dataBytes }

// Add appends an entry. Entries must arrive in strictly increasing key
// order (the builder enforces this).
func (b *Builder) Add(e *kv.Entry) error {
	if b.lastKey != nil && bytes.Compare(e.Key, b.lastKey) <= 0 {
		return fmt.Errorf("sstable: keys out of order (%x after %x)", e.Key, b.lastKey)
	}
	vl := e.ValueLen
	if e.Value != nil {
		vl = len(e.Value)
	}
	sz := entryHeaderSize + len(e.Key) + vl
	if b.curBlockBytes > 0 && b.curBlockBytes+sz > b.targetBlock {
		b.finishBlock()
	}
	idx := int32(len(b.seqs))
	if b.curBlockBytes == 0 {
		b.curBlockFirst = idx
	}
	b.keyArena = append(b.keyArena, e.Key...)
	b.keyOffsets = append(b.keyOffsets, uint32(len(b.keyArena)))
	b.mixed = b.mixed || len(e.Key) != kv.KeySize
	b.seqs = append(b.seqs, e.Seq)
	b.vlens = append(b.vlens, uint32(vl))
	var del byte
	if e.Deleted {
		del = 1
	}
	b.dels = append(b.dels, del)
	b.lastKey = b.keyArena[b.keyOffsets[idx]:b.keyOffsets[idx+1]]

	if b.content {
		var hdr [entryHeaderSize]byte
		hdr[0] = del
		binary.LittleEndian.PutUint16(hdr[1:], uint16(len(e.Key)))
		binary.LittleEndian.PutUint32(hdr[3:], uint32(vl))
		binary.LittleEndian.PutUint64(hdr[7:], e.Seq)
		b.data = append(b.data, hdr[:]...)
		b.data = append(b.data, e.Key...)
		b.data = append(b.data, e.Value...)
		// Retain the value in the side index (arena-packed, like keys):
		// compactions merge through it, and their output blocks must
		// carry the real bytes.
		if b.valOffsets == nil {
			b.valOffsets = []uint32{0}
		}
		b.valArena = append(b.valArena, e.Value...)
		b.valOffsets = append(b.valOffsets, uint32(len(b.valArena)))
	}
	b.curBlockBytes += sz
	b.dataBytes += int64(sz)
	return nil
}

// AppendTableRange bulk-appends entries [i, j) of table t (which must
// all sort after the builder's current contents — the merge guarantees
// it). Entries land exactly as a sequence of per-entry Add calls would:
// identical block boundaries, identical byte accounting. When drop is
// set, tombstones are skipped (they do not contribute to size or block
// layout, matching the merge loop's skip-before-Add). The walk stops
// once the builder's data bytes reach limitBytes (checked after each
// appended entry, mirroring the per-entry roll check) and returns the
// next unconsumed index. Accounting mode only.
func (b *Builder) AppendTableRange(t *Table, i, j int, drop bool, limitBytes int64) int {
	if b.content || t.content {
		panic("sstable: AppendTableRange is accounting-mode only")
	}
	for ; i < j; i++ {
		if drop && t.dels[i] == 1 {
			continue
		}
		keyLen := int(t.keyOffsets[i+1] - t.keyOffsets[i])
		sz := entryHeaderSize + keyLen + int(t.vlens[i])
		if b.curBlockBytes > 0 && b.curBlockBytes+sz > b.targetBlock {
			b.finishBlock()
		}
		idx := int32(len(b.seqs))
		if b.curBlockBytes == 0 {
			b.curBlockFirst = idx
		}
		b.keyArena = append(b.keyArena, t.keyArena[t.keyOffsets[i]:t.keyOffsets[i+1]]...)
		b.keyOffsets = append(b.keyOffsets, uint32(len(b.keyArena)))
		b.mixed = b.mixed || keyLen != kv.KeySize
		b.seqs = append(b.seqs, t.seqs[i])
		b.vlens = append(b.vlens, t.vlens[i])
		b.dels = append(b.dels, t.dels[i])
		b.curBlockBytes += sz
		b.dataBytes += int64(sz)
		if b.dataBytes >= limitBytes {
			i++
			break
		}
	}
	if n := len(b.seqs); n > 0 {
		b.lastKey = b.keyArena[b.keyOffsets[n-1]:b.keyOffsets[n]]
	}
	return i
}

// finishBlock closes the current data block, page-aligning the next one.
func (b *Builder) finishBlock() {
	if b.curBlockBytes == 0 {
		return
	}
	pages := int32((b.curBlockBytes + b.pageSize - 1) / b.pageSize)
	b.blocks = append(b.blocks, blockMeta{
		firstEntry: b.curBlockFirst,
		startPage:  b.nextPage,
		pages:      pages,
	})
	b.nextPage += pages
	if b.content {
		// Pad the serialized data to the page boundary.
		pad := int(int64(b.nextPage)*int64(b.pageSize)) - len(b.data)
		if pad > 0 {
			b.data = append(b.data, make([]byte, pad)...)
		}
	}
	b.curBlockBytes = 0
}

// FileImage is a fully laid-out SSTable ready to be written to a file.
type FileImage struct {
	Pages     int64  // total file length in pages
	Data      []byte // nil in accounting mode, else Pages*pageSize bytes
	SizeBytes int64  // logical size (data + index + filter + footer)

	table *Table // side index, adopted by Install
}

// Finish closes the table layout: remaining data block, index block,
// Bloom filter and footer. The returned image is independent of the
// builder.
func (b *Builder) Finish(id uint64) *FileImage {
	b.finishBlock()
	n := len(b.seqs)
	// In accounting mode the Bloom filter is built lazily on the table's
	// first probe (see Table.mayContain): write-heavy runs churn through
	// tables that die in compactions without ever serving a Get, and the
	// per-key hashing + scattered bit-sets were the most expensive part
	// of sealing a table. Content mode needs the bits now — they are
	// serialized into the file image.
	var bloom Bloom
	if b.content {
		bloom = newBloom(n)
		for i := 0; i < n; i++ {
			bloom.Add(b.keyArena[b.keyOffsets[i]:b.keyOffsets[i+1]])
		}
	}
	// Metadata sections: index block (16 bytes per block entry as laid
	// out below), filter, footer. They are written page-aligned after
	// the data.
	indexBytes := 4 + 16*len(b.blocks)
	filterBytes := bloomSizeBytes(n)
	const footerBytes = 32
	metaBytes := indexBytes + filterBytes + footerBytes
	metaPages := int64((metaBytes + b.pageSize - 1) / b.pageSize)
	totalPages := int64(b.nextPage) + metaPages
	if totalPages == 0 {
		totalPages = 1 // empty table still occupies its footer page
	}

	t := &Table{
		ID:         id,
		keyArena:   b.keyArena,
		keyOffsets: b.keyOffsets,
		seqs:       b.seqs,
		vlens:      b.vlens,
		dels:       b.dels,
		blocks:     b.blocks,
		bloom:      bloom,
		valArena:   b.valArena,
		valOffsets: b.valOffsets,
		numEntries: n,
		sizeBytes:  b.dataBytes + int64(metaBytes),
		filePages:  totalPages,
		pageSize:   b.pageSize,
		content:    b.content,
	}
	t.seal(b.mixed)

	img := &FileImage{
		Pages:     totalPages,
		SizeBytes: t.sizeBytes,
		table:     t,
	}
	if b.content {
		data := make([]byte, totalPages*int64(b.pageSize))
		copy(data, b.data)
		scratch := b.data[:0]
		contentBufPool.Put(&scratch)
		b.data = nil
		off := int64(b.nextPage) * int64(b.pageSize)
		// Index block: count then 16 bytes per block.
		binary.LittleEndian.PutUint32(data[off:], uint32(len(b.blocks)))
		off += 4
		for _, bm := range b.blocks {
			binary.LittleEndian.PutUint32(data[off:], uint32(bm.firstEntry))
			binary.LittleEndian.PutUint32(data[off+4:], uint32(bm.startPage))
			binary.LittleEndian.PutUint32(data[off+8:], uint32(bm.pages))
			off += 16
		}
		// Filter.
		copy(data[off:], bloom.encode())
		// Footer: fixed 32 bytes at the very end of the file.
		foot := totalPages*int64(b.pageSize) - footerBytes
		binary.LittleEndian.PutUint32(data[foot:], footerMagic)
		binary.LittleEndian.PutUint64(data[foot+4:], uint64(n))
		binary.LittleEndian.PutUint64(data[foot+12:], id)
		binary.LittleEndian.PutUint32(data[foot+20:], uint32(b.nextPage)) // metadata start page
		binary.LittleEndian.PutUint32(data[foot+24:], uint32(len(b.blocks)))
		img.Data = data
	}
	return img
}

// WriteChunk appends up to maxPages of the image to file f starting at
// virtual time now. written tracks progress across calls (start at 0).
// It returns the completion time and the new progress; done reports
// whether the image is fully on disk.
func (img *FileImage) WriteChunk(now sim.Duration, f *extfs.File, written int64, maxPages int) (sim.Duration, int64, bool, error) {
	remaining := img.Pages - written
	if remaining <= 0 {
		return now, written, true, nil
	}
	n := int64(maxPages)
	if n > remaining {
		n = remaining
	}
	var data []byte
	if img.Data != nil {
		ps := int64(len(img.Data)) / img.Pages
		data = img.Data[written*ps : (written+n)*ps]
	}
	// Attribute logical bytes proportionally via cumulative shares, so
	// the per-chunk amounts telescope to exactly SizeBytes.
	logical := img.SizeBytes*(written+n)/img.Pages - img.SizeBytes*written/img.Pages
	done, err := f.Append(now, int(n), data, logical)
	if err != nil {
		return now, written, false, err
	}
	written += n
	return done, written, written == img.Pages, nil
}

// ID returns the table id embedded in the image's footer. The owning
// file MUST be named for it (lsm names files sst-<id>): recovery binds
// the reopened footer id to the file name to catch a stale table image
// resurrected by a lying fsync or a misdirected write.
func (img *FileImage) ID() uint64 { return img.table.ID }

// Install finalizes the image into a Table bound to file f. Call it after
// the image has been fully written.
func (img *FileImage) Install(f *extfs.File) *Table {
	img.table.file = f
	img.table.fileName = f.Name()
	return img.table
}

// OpenFromFile rebuilds a Table by parsing a previously written file
// (content mode only): it reads the footer, index and filter, then scans
// the data blocks to reconstruct the side index. now threads the device
// time for the reads; the returned time includes the full scan, which is
// what an engine pays to open a table it has no cached metadata for.
func OpenFromFile(f *extfs.File, pageSize int, now sim.Duration) (*Table, sim.Duration, error) {
	pages := f.SizePages()
	if pages == 0 {
		return nil, now, fmt.Errorf("sstable: file %s is empty", f.Name())
	}
	buf := make([]byte, pages*int64(pageSize))
	done, err := f.ReadAt(now, 0, int(pages), buf)
	if err != nil {
		return nil, now, err
	}
	t, err := parseTable(buf, pageSize)
	if err != nil {
		return nil, done, fmt.Errorf("sstable: parsing %s: %w", f.Name(), err)
	}
	t.file = f
	t.fileName = f.Name()
	t.filePages = pages
	return t, done, nil
}

// parseTable reconstructs the side index from the serialized file using
// the footer, index block and filter written by Finish.
func parseTable(data []byte, pageSize int) (*Table, error) {
	if len(data) < 32 {
		return nil, fmt.Errorf("file too small")
	}
	foot := len(data) - 32
	if binary.LittleEndian.Uint32(data[foot:]) != footerMagic {
		return nil, fmt.Errorf("footer magic not found")
	}
	n := int(binary.LittleEndian.Uint64(data[foot+4:]))
	id := binary.LittleEndian.Uint64(data[foot+12:])
	metaStart := int(binary.LittleEndian.Uint32(data[foot+20:])) * pageSize
	numBlocks := int(binary.LittleEndian.Uint32(data[foot+24:]))
	if metaStart < 0 || metaStart+4+16*numBlocks > len(data) {
		return nil, fmt.Errorf("corrupt footer (metaStart %d, blocks %d)", metaStart, numBlocks)
	}
	if got := int(binary.LittleEndian.Uint32(data[metaStart:])); got != numBlocks {
		return nil, fmt.Errorf("index count %d disagrees with footer %d", got, numBlocks)
	}
	t := &Table{
		ID:         id,
		keyOffsets: []uint32{0},
		numEntries: n,
		pageSize:   pageSize,
		content:    true,
	}
	off := metaStart + 4
	for i := 0; i < numBlocks; i++ {
		t.blocks = append(t.blocks, blockMeta{
			firstEntry: int32(binary.LittleEndian.Uint32(data[off:])),
			startPage:  int32(binary.LittleEndian.Uint32(data[off+4:])),
			pages:      int32(binary.LittleEndian.Uint32(data[off+8:])),
		})
		off += 16
	}
	bloom, ok := decodeBloom(data[off:])
	if !ok {
		return nil, fmt.Errorf("corrupt bloom filter")
	}
	t.bloom = bloom

	// Rebuild the per-entry side index by walking the data blocks (their
	// extents are now known exactly from the index).
	entries := 0
	mixed := false
	for bi, bm := range t.blocks {
		pos := int(bm.startPage) * pageSize
		last := bi == len(t.blocks)-1
		blockEntries := n - int(bm.firstEntry)
		if !last {
			blockEntries = int(t.blocks[bi+1].firstEntry - bm.firstEntry)
		}
		for j := 0; j < blockEntries; j++ {
			if pos+entryHeaderSize > len(data) {
				return nil, fmt.Errorf("truncated entry in block %d", bi)
			}
			del := data[pos]
			kl := int(binary.LittleEndian.Uint16(data[pos+1:]))
			vl := int(binary.LittleEndian.Uint32(data[pos+3:]))
			seq := binary.LittleEndian.Uint64(data[pos+7:])
			if kl == 0 || pos+entryHeaderSize+kl+vl > len(data) {
				return nil, fmt.Errorf("corrupt entry %d in block %d", j, bi)
			}
			key := data[pos+entryHeaderSize : pos+entryHeaderSize+kl]
			t.keyArena = append(t.keyArena, key...)
			t.keyOffsets = append(t.keyOffsets, uint32(len(t.keyArena)))
			mixed = mixed || kl != kv.KeySize
			t.seqs = append(t.seqs, seq)
			t.vlens = append(t.vlens, uint32(vl))
			t.dels = append(t.dels, del)
			if t.valOffsets == nil {
				t.valOffsets = []uint32{0}
			}
			t.valArena = append(t.valArena, data[pos+entryHeaderSize+kl:pos+entryHeaderSize+kl+vl]...)
			t.valOffsets = append(t.valOffsets, uint32(len(t.valArena)))
			entries++
			pos += entryHeaderSize + kl + vl
		}
	}
	if entries != n {
		return nil, fmt.Errorf("entry count %d disagrees with footer %d", entries, n)
	}
	t.seal(mixed)
	var size int64
	for i := 0; i < n; i++ {
		size += int64(entryHeaderSize) + int64(t.keyOffsets[i+1]-t.keyOffsets[i]) + int64(t.vlens[i])
	}
	t.sizeBytes = size
	return t, nil
}
