// Package wal implements a write-ahead log over extfs: length-prefixed,
// CRC-protected records appended to segment files, synced page-aligned.
// All three engines journal through it — the LSM for its memtable, the
// B+Tree and the Bε-tree for their updates — and it owns the lifecycle
// they share: Log names, rotates, recycles, replays and retires the
// segments, and Slots keeps each engine's double-buffered root record
// (the LSM's manifest, a tree's checkpoint metadata).
//
// Sync granularity matters for write amplification: a sync rewrites the
// partial tail page, so small synced records cost a full device page, the
// same overhead a real WAL pays with direct I/O (the paper's setup).
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"ptsbench/internal/extfs"
	"ptsbench/internal/kv"
	"ptsbench/internal/sim"
)

// Record is one logical WAL entry. Its key is a kv.KeySize key, the only
// width the engines journal; replay refuses a record with any other.
type Record struct {
	Seq     uint64
	Key     []byte
	Value   []byte
	Deleted bool
	// ValueLen mirrors kv.Entry.ValueLen for accounting-only mode.
	ValueLen int
}

// headerSize is the per-record on-disk overhead:
// crc(4) + payloadLen(4) + seq(8) + flags(1) + keyLen(2) + valueLen(4).
const headerSize = 4 + 4 + 8 + 1 + 2 + 4

// EncodedLen returns the on-disk size of a record.
func (r *Record) EncodedLen() int {
	vl := r.ValueLen
	if r.Value != nil {
		vl = len(r.Value)
	}
	return headerSize + len(r.Key) + vl
}

// encode serializes the record. Only used in content mode (Value held).
func (r *Record) encode() []byte {
	vl := len(r.Value)
	payload := make([]byte, 8+1+2+4+len(r.Key)+vl)
	binary.LittleEndian.PutUint64(payload[0:], r.Seq)
	if r.Deleted {
		payload[8] = 1
	}
	binary.LittleEndian.PutUint16(payload[9:], uint16(len(r.Key)))
	binary.LittleEndian.PutUint32(payload[11:], uint32(vl))
	copy(payload[15:], r.Key)
	copy(payload[15+len(r.Key):], r.Value)

	out := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(out[0:], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(out[4:], uint32(len(payload)))
	copy(out[8:], payload)
	return out
}

// decodeRecord parses one record at buf, returning the record and the
// bytes consumed, or ok=false at end-of-log (zero length, bad CRC, or a
// malformed payload, a key that is not kv.KeySize bytes included).
func decodeRecord(buf []byte) (rec Record, n int, ok bool) {
	if len(buf) < 8 {
		return rec, 0, false
	}
	crc := binary.LittleEndian.Uint32(buf[0:])
	plen := binary.LittleEndian.Uint32(buf[4:])
	if plen == 0 || int(plen) > len(buf)-8 || plen < 15 {
		return rec, 0, false
	}
	payload := buf[8 : 8+plen]
	if crc32.ChecksumIEEE(payload) != crc {
		return rec, 0, false
	}
	rec.Seq = binary.LittleEndian.Uint64(payload[0:])
	rec.Deleted = payload[8] == 1
	kl := binary.LittleEndian.Uint16(payload[9:])
	vl := binary.LittleEndian.Uint32(payload[11:])
	if kl != kv.KeySize || int(15+uint32(kl)+vl) != len(payload) {
		return rec, 0, false
	}
	rec.Key = append([]byte(nil), payload[15:15+kl]...)
	rec.Value = append([]byte(nil), payload[15+kl:]...)
	rec.ValueLen = int(vl)
	return rec, 8 + int(plen), true
}

// Writer appends records to a segment file.
type Writer struct {
	fs       *extfs.FS
	file     *extfs.File
	name     string
	pageSize int
	content  bool // retain record bytes (content mode)

	buf        []byte // full segment content in content mode
	size       int64  // logical bytes appended
	syncedSize int64  // bytes covered by the last sync
	syncedPage int64  // pages fully durable (file length written so far)
	syncCount  int64  // syncs that actually wrote (group-commit accounting)
}

// Create starts a new segment file with the given name. content selects
// whether record bytes are retained and written through (required for
// Replay).
func Create(fs *extfs.FS, name string, content bool) (*Writer, error) {
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &Writer{fs: fs, file: f, name: name, pageSize: fs.PageSize(), content: content}, nil
}

// Name returns the segment file name.
func (w *Writer) Name() string { return w.name }

// UnsyncedBytes returns the bytes appended since the last sync.
func (w *Writer) UnsyncedBytes() int64 { return w.size - w.syncedSize }

// SyncCount returns the number of syncs that reached the device (syncs
// with nothing new to write don't count). Group commit holds the
// invariant that a multi-write intake costs exactly one of these.
func (w *Writer) SyncCount() int64 { return w.syncCount }

// Append adds a record and, when sync is set, flushes it durably,
// returning the virtual completion time. Without sync the record is
// buffered and costs no I/O yet.
func (w *Writer) Append(now sim.Duration, rec *Record, sync bool) (sim.Duration, error) {
	if w.content {
		w.buf = append(w.buf, rec.encode()...)
		w.size = int64(len(w.buf))
	} else {
		w.size += int64(rec.EncodedLen())
	}
	if !sync {
		return now, nil
	}
	return w.Sync(now)
}

// Sync makes all appended records durable: it writes every page touched
// since the previous sync, including rewriting a previously synced
// partial tail page.
func (w *Writer) Sync(now sim.Duration) (sim.Duration, error) {
	if w.size == w.syncedSize {
		return now, nil
	}
	ps := int64(w.pageSize)
	firstPage := w.syncedSize / ps // tail page is rewritten if partial
	lastPage := (w.size - 1) / ps
	if need := lastPage + 1 - w.file.SizePages(); need > 0 {
		if err := w.file.Grow(need); err != nil {
			return now, err
		}
	}
	n := int(lastPage - firstPage + 1)
	var data []byte
	if w.content {
		data = make([]byte, int64(n)*ps)
		copy(data, w.buf[firstPage*ps:])
	}
	done, err := w.file.WriteAt(now, firstPage, n, data)
	if err != nil {
		return now, err
	}
	// A WAL sync is an fsync: the records written above — and every
	// earlier write — survive a power cut from here on. A failing
	// barrier means none of that can be assumed: leave the synced
	// watermarks untouched so a retry rewrites and re-barriers.
	if err := w.fs.Barrier(); err != nil {
		return now, err
	}
	w.syncedSize = w.size
	w.syncedPage = lastPage + 1
	w.syncCount++
	return done, nil
}

// recycle logically truncates the segment for reuse, keeping its file and
// allocated pages: subsequent appends overwrite from offset zero. This
// models the log pre-allocation/recycling of real engines (WiredTiger
// recycles log files; RocksDB offers recycle_log_file_num), which keeps
// journal traffic confined to a fixed set of LBAs instead of sweeping the
// partition.
//
// Recycling overwrites the segment's first page with zeros so that a
// later Replay cannot resurrect the records of the previous generation —
// the page write is the recovery-safety cost real engines pay when they
// rewrite a recycled log's header. It returns the completion time of that
// write.
func (w *Writer) recycle(now sim.Duration) (sim.Duration, error) {
	w.buf = w.buf[:0]
	w.size = 0
	w.syncedSize = 0
	w.syncedPage = 0
	if w.file.SizePages() > 0 {
		var zero []byte
		if w.content {
			zero = make([]byte, w.pageSize)
		}
		done, err := w.file.WriteAt(now, 0, 1, zero)
		if err != nil {
			return now, err
		}
		return done, nil
	}
	return now, nil
}

// Replay reads a segment and invokes fn for each intact record, stopping
// cleanly at the end of the log (a freshly recycled segment replays as
// empty). It requires content mode — the block device must retain bytes —
// and returns an error when the device does not.
func Replay(fs *extfs.FS, name string, now sim.Duration, fn func(Record)) (sim.Duration, error) {
	if !fs.Device().ContentEnabled() {
		return now, fmt.Errorf("wal: replay of %s requires a content-enabled device", name)
	}
	f, err := fs.Open(name)
	if err != nil {
		return now, err
	}
	pages := f.SizePages()
	if pages == 0 {
		return now, nil
	}
	buf := make([]byte, pages*int64(fs.PageSize()))
	done, err := f.ReadAt(now, 0, int(pages), buf)
	if err != nil {
		return now, err
	}
	off := 0
	for {
		rec, n, ok := decodeRecord(buf[off:])
		if !ok {
			break
		}
		fn(rec)
		off += n
	}
	return done, nil
}
