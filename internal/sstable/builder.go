package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"

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
	spares      *Spares // where the side index's arrays come from

	// Side index under construction, in the Table's columns: vlens and
	// dels stay nil while every entry so far can derive them (see
	// Table), and each is materialized at the first entry that breaks
	// its rule, its earlier entries filled in.
	keyArena   []byte
	seqs       []uint64
	vlens      []uint32
	dels       []byte
	vlen0      uint32 // the first entry's value length
	hint       int    // NewBuilder's entryHint, the class a materialized column is taken in
	blocks     []blockMeta
	valArena   []byte   // content mode: retained value bytes, packed
	valOffsets []uint32 // content mode: len = entries+1

	curBlockBytes int   // payload bytes in the current block
	curBlockFirst int32 // first entry index of current block
	nextPage      int32 // next file page to be assigned

	data      []byte // serialized data blocks (content mode only; scratch from spares)
	dataBytes int64  // logical payload bytes
}

// DefaultBlockBytes matches a common SSTable block target (32 KiB).
const DefaultBlockBytes = 32 << 10

// NewBuilder creates a builder. pageSize is the device page size; content
// selects whether real bytes are produced. entryHint is the expected
// entry count (0 if unknown): the key arena and the seqs column of the
// side index under construction are arrays from spares of the
// power-of-two class with room for that many entries (a high estimate
// just wastes some slack), so appending never
// regrows them, and a derived column that an entry materializes is
// taken in the same class.
// Flush and compaction jobs know their input entry counts, and their
// DB's spares hold the arrays of the tables its compactions removed, so
// in steady state a builder allocates no column. The block index and
// content mode's value arena and data scratch, whose sizes the hint does
// not give, grow by trading arrays with spares. The Builder struct itself
// is a spare too: Finish hands it back.
func NewBuilder(pageSize, targetBlockBytes int, content bool, entryHint int, spares *Spares) *Builder {
	if targetBlockBytes <= 0 {
		targetBlockBytes = DefaultBlockBytes
	}
	if entryHint < 0 {
		entryHint = 0
	}
	b := spares.builders.Get()
	*b = Builder{
		pageSize:    pageSize,
		targetBlock: targetBlockBytes,
		content:     content,
		spares:      spares,
		keyArena:    spares.keyArena.Get(entryHint * kv.KeySize)[:0],
		seqs:        spares.seqs.Get(entryHint)[:0],
		hint:        entryHint,
	}
	if content {
		b.valOffsets = append(spares.valOffsets.Get(entryHint + 1)[:0], 0)
	}
	return b
}

// NumEntries returns the number of entries added so far.
func (b *Builder) NumEntries() int { return len(b.seqs) }

// EstimatedBytes returns the approximate final logical size.
func (b *Builder) EstimatedBytes() int64 { return b.dataBytes }

// Add appends an entry. Its key must be kv.KeySize bytes, and entries
// must arrive in strictly increasing key order (the builder enforces
// both).
func (b *Builder) Add(e *kv.Entry) error {
	if err := kv.CheckKey(e.Key); err != nil {
		return err
	}
	if n := len(b.seqs); n > 0 && kv.CompareKeys(e.Key, b.key(n-1)) <= 0 {
		return fmt.Errorf("sstable: keys out of order (%x after %x)", e.Key, b.key(n-1))
	}
	vl := e.ValueLen
	if e.Value != nil {
		vl = len(e.Value)
	}
	sz := entryHeaderSize + len(e.Key) + vl
	if b.curBlockBytes > 0 && b.curBlockBytes+sz > b.targetBlock {
		b.finishBlock()
	}
	if b.curBlockBytes == 0 {
		b.curBlockFirst = int32(len(b.seqs))
	}
	b.addIndex(e.Key, e.Seq, vl, e.Deleted)
	if b.content {
		b.appendContent(e.Key, e.Value, vl, e.Seq, e.Deleted)
	}
	b.curBlockBytes += sz
	b.dataBytes += int64(sz)
	return nil
}

// key returns entry i's key.
func (b *Builder) key(i int) []byte {
	o := i * kv.KeySize
	return b.keyArena[o : o+kv.KeySize]
}

// addIndex appends one entry to the side index's columns, materializing
// a derived column first when the entry breaks its rule.
func (b *Builder) addIndex(key []byte, seq uint64, vl int, del bool) {
	if len(b.seqs) == 0 {
		b.vlen0 = uint32(vl)
	} else if b.vlens == nil && uint32(vl) != b.vlen0 {
		b.materializeVlens()
	}
	if b.dels == nil && del {
		b.materializeDels()
	}
	b.keyArena = append(b.keyArena, key...)
	b.seqs = append(b.seqs, seq)
	if b.vlens != nil {
		b.vlens = append(b.vlens, uint32(vl))
	}
	if b.dels != nil {
		b.dels = append(b.dels, delByte(del))
	}
}

// materializeVlens gives the side index its vlens column, the entries so
// far all of length vlen0.
func (b *Builder) materializeVlens() {
	n := len(b.seqs)
	b.vlens = b.spares.vlens.Get(max(b.hint, n+1))[:n]
	for i := range b.vlens {
		b.vlens[i] = b.vlen0
	}
}

// materializeDels gives the side index its dels column, no entry so far
// a tombstone.
func (b *Builder) materializeDels() {
	n := len(b.seqs)
	b.dels = b.spares.dels.Get(max(b.hint, n+1))[:n]
	clear(b.dels)
}

func delByte(del bool) byte {
	if del {
		return 1
	}
	return 0
}

// appendContent writes one entry — header, key, value — into the
// serialized data blocks and retains its value in the side index
// (arena-packed, like keys): compactions merge through it, and their
// output blocks must carry the real bytes. vl is the value length the
// header records. Content mode only.
func (b *Builder) appendContent(key, value []byte, vl int, seq uint64, del bool) {
	var hdr [entryHeaderSize]byte
	hdr[0] = delByte(del)
	binary.LittleEndian.PutUint16(hdr[1:], uint16(len(key)))
	binary.LittleEndian.PutUint32(hdr[3:], uint32(vl))
	binary.LittleEndian.PutUint64(hdr[7:], seq)
	b.data = b.spares.data.Grow(b.data, entryHeaderSize+len(key)+vl)
	b.data = append(b.data, hdr[:]...)
	b.data = append(b.data, key...)
	b.data = append(b.data, value...)
	b.valArena = b.spares.valArena.Grow(b.valArena, len(value))
	b.valArena = append(b.valArena, value...)
	b.valOffsets = append(b.valOffsets, uint32(len(b.valArena)))
}

// AppendTableRange bulk-appends entries [i, j) of table t (which must
// all sort after the builder's current contents — the merge guarantees
// it). Entries land exactly as a sequence of per-entry Add calls would:
// identical block boundaries, identical byte accounting, and in content
// mode identical serialized entries and retained values. When drop is
// set, tombstones are skipped (they do not contribute to size or block
// layout, matching the merge loop's skip-before-Add). The walk stops
// once the builder's data bytes reach limitBytes (checked after each
// appended entry, mirroring the per-entry roll check) and returns the
// next unconsumed index. A table whose mode differs from the builder's
// is an error, and appends nothing.
//
// The walk lays out one entry at a time (block cuts, accounting and, in
// content mode, the serialized entry); appendColumns then adds the side
// index of each run of appended entries, which only a dropped tombstone
// breaks, its keys in one copy.
func (b *Builder) AppendTableRange(t *Table, i, j int, drop bool, limitBytes int64) (int, error) {
	if b.content != t.content {
		return i, errors.New("sstable: AppendTableRange across content and accounting mode")
	}
	lo := i // the current run's first entry
	for ; i < j; i++ {
		if drop && t.tomb(i) {
			b.appendColumns(t, lo, i)
			lo = i + 1
			continue
		}
		vl := t.vlen(i)
		sz := entryHeaderSize + kv.KeySize + vl
		if b.curBlockBytes > 0 && b.curBlockBytes+sz > b.targetBlock {
			b.finishBlock()
		}
		if b.curBlockBytes == 0 {
			b.curBlockFirst = int32(len(b.seqs) + i - lo)
		}
		if b.content {
			b.appendContent(t.key(i), t.valArena[t.valOffsets[i]:t.valOffsets[i+1]], vl, t.seqs[i], t.tomb(i))
		}
		b.curBlockBytes += sz
		b.dataBytes += int64(sz)
		if b.dataBytes >= limitBytes {
			i++
			break
		}
	}
	b.appendColumns(t, lo, i)
	return i, nil
}

// appendColumns appends entries [lo, hi) of t's side index: the keys in
// one copy, the sequence numbers, and whichever of the value lengths and
// tombstone marks the builder holds — a derived column is materialized
// first when the run breaks its rule: a tombstone, which only a table
// holding that column can have, or a value length other than the
// builder's vlen0, read from t's vlen0 when t holds no vlens. The
// columns are appended entry by entry: compactions of random keys append
// runs of one to a few entries, and a copy call per column cost more
// there than it saved on long runs.
func (b *Builder) appendColumns(t *Table, lo, hi int) {
	if lo == hi {
		return
	}
	if len(b.seqs) == 0 {
		b.vlen0 = uint32(t.vlen(lo))
	}
	switch {
	case b.vlens != nil:
	case t.vlens == nil:
		if t.vlen0 != b.vlen0 {
			b.materializeVlens()
		}
	default:
		for k := lo; k < hi; k++ {
			if t.vlens[k] != b.vlen0 {
				b.materializeVlens()
				break
			}
		}
	}
	if b.dels == nil && t.dels != nil && bytes.IndexByte(t.dels[lo:hi], 1) >= 0 {
		b.materializeDels()
	}
	b.keyArena = append(b.keyArena, t.keyArena[lo*kv.KeySize:hi*kv.KeySize]...)
	for k := lo; k < hi; k++ {
		b.seqs = append(b.seqs, t.seqs[k])
	}
	if b.vlens != nil {
		for k := lo; k < hi; k++ {
			b.vlens = append(b.vlens, uint32(t.vlen(k)))
		}
	}
	if b.dels != nil {
		for k := lo; k < hi; k++ {
			b.dels = append(b.dels, delByte(t.tomb(k)))
		}
	}
}

// finishBlock closes the current data block, page-aligning the next one.
func (b *Builder) finishBlock() {
	if b.curBlockBytes == 0 {
		return
	}
	pages := int32((b.curBlockBytes + b.pageSize - 1) / b.pageSize)
	b.blocks = b.spares.blocks.Grow(b.blocks, 1)
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
			b.data = b.spares.data.Grow(b.data, pad)
			b.data = append(b.data, make([]byte, pad)...)
		}
	}
	b.curBlockBytes = 0
}

// FileImage is a fully laid-out SSTable ready to be written to a file.
// It lives inside the Table it installs as, so an image is no heap
// object of its own.
type FileImage struct {
	Pages int64  // total file length in pages
	Data  []byte // nil in accounting mode, else Pages*pageSize bytes

	table *Table // side index, adopted by Install
}

// Finish closes the table layout: remaining data block, index block,
// Bloom filter and footer. The returned image is independent of the
// builder, which goes back to its Spares and must not be used again.
// The table's struct is a spare one when its Spares holds one.
func (b *Builder) Finish(id uint64) *FileImage {
	b.finishBlock()
	n := len(b.seqs)
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

	t := b.spares.tables.Get()
	*t = Table{
		ID:         id,
		keyArena:   b.keyArena,
		seqs:       b.seqs,
		vlens:      b.vlens,
		dels:       b.dels,
		vlen0:      b.vlen0,
		blocks:     b.blocks,
		valArena:   b.valArena,
		valOffsets: b.valOffsets,
		numEntries: n,
		sizeBytes:  b.dataBytes + int64(metaBytes),
		filePages:  totalPages,
		pageSize:   b.pageSize,
		content:    b.content,
		spares:     b.spares,
	}
	t.seal()
	// In accounting mode the Bloom filter is built lazily on the table's
	// first probe (see Table.mayContain): write-heavy runs churn through
	// tables that die in compactions without ever serving a Get, and the
	// per-key hashing + scattered bit-sets were the most expensive part
	// of sealing a table. Content mode needs the bits now — they are
	// serialized into the file image.
	if b.content {
		t.buildBloom()
	}

	img := &t.image
	*img = FileImage{
		Pages: totalPages,
		table: t,
	}
	if b.content {
		data := make([]byte, totalPages*int64(b.pageSize))
		copy(data, b.data)
		b.spares.data.Put(b.data)
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
		copy(data[off:], t.bloom.encode())
		// Footer: fixed 32 bytes at the very end of the file.
		foot := totalPages*int64(b.pageSize) - footerBytes
		binary.LittleEndian.PutUint32(data[foot:], footerMagic)
		binary.LittleEndian.PutUint64(data[foot+4:], uint64(n))
		binary.LittleEndian.PutUint64(data[foot+12:], id)
		binary.LittleEndian.PutUint32(data[foot+20:], uint32(b.nextPage)) // metadata start page
		binary.LittleEndian.PutUint32(data[foot+24:], uint32(len(b.blocks)))
		img.Data = data
	}
	// The arrays now belong to the table: the builder keeps none of them.
	spares := b.spares
	*b = Builder{}
	spares.builders.Put(b)
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
	done, err := f.Append(now, int(n), data)
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
	// extents are now known exactly from the index), through a builder's
	// columns so the derived ones stay nil as Add leaves them.
	cols := Builder{spares: new(Spares)}
	var size int64
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
			if kl != kv.KeySize || pos+entryHeaderSize+kl+vl > len(data) {
				return nil, fmt.Errorf("corrupt entry %d in block %d", j, bi)
			}
			key := data[pos+entryHeaderSize : pos+entryHeaderSize+kl]
			cols.addIndex(key, seq, vl, del == 1)
			if t.valOffsets == nil {
				t.valOffsets = []uint32{0}
			}
			t.valArena = append(t.valArena, data[pos+entryHeaderSize+kl:pos+entryHeaderSize+kl+vl]...)
			t.valOffsets = append(t.valOffsets, uint32(len(t.valArena)))
			size += int64(entryHeaderSize + kl + vl)
			pos += entryHeaderSize + kl + vl
		}
	}
	if entries := len(cols.seqs); entries != n {
		return nil, fmt.Errorf("entry count %d disagrees with footer %d", entries, n)
	}
	t.keyArena, t.seqs, t.vlens, t.dels, t.vlen0 = cols.keyArena, cols.seqs, cols.vlens, cols.dels, cols.vlen0
	t.seal()
	t.sizeBytes = size
	return t, nil
}
