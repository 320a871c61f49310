// Package filedev is an os.File-backed implementation of the block
// layer's Dev interface: the same page-granular WriteErr/ReadErr/Discard
// surface the simulated device offers, but every page lands in a real
// file on a real filesystem, so the kernel's write path — page cache,
// fsync, FLUSH barriers — is actually exercised. It is the
// "real-durability backend" the roadmap calls for: engines and the
// fault-injecting wrapper run unchanged on either authority, and the
// differential checker in internal/devdiff proves the two agree.
//
// I/O is buffered (no O_DIRECT); durability comes from the configurable
// fsync discipline (DisciplineNone / DisciplineBarrier /
// DisciplineAlways), mirroring the fsync spectrum real engines expose.
// Time accounting has two modes: the fixed Default*Cost charges
// (deterministic, the test default) or measured wall-clock latency
// folded into virtual time (Config.Measure, for looking at real
// hardware).
// Host instrumentation — iostat Counters and the per-LBA write
// histogram — matches the simulated blockdev.Device, so the Fig 4
// plots work over either backend.
package filedev

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/deverr"
	"ptsbench/internal/sim"
)

// Discipline selects when writes become durable.
type Discipline int

const (
	// DisciplineBarrier fsyncs on SyncErr — the default, and the
	// contract extfs.FS.Barrier expects: acknowledged writes may sit in
	// the page cache until the next barrier.
	DisciplineBarrier Discipline = iota
	// DisciplineNone never fsyncs; durability is whatever the kernel
	// writeback gives you. Fastest, and what "running without fsync"
	// measures.
	DisciplineNone
	// DisciplineAlways fsyncs after every write — O_SYNC-style, the
	// most conservative discipline.
	DisciplineAlways
)

// ParseDiscipline maps the spec-file spelling to a Discipline.
func ParseDiscipline(s string) (Discipline, error) {
	switch s {
	case "", "barrier":
		return DisciplineBarrier, nil
	case "none":
		return DisciplineNone, nil
	case "always":
		return DisciplineAlways, nil
	}
	return 0, fmt.Errorf("filedev: unknown fsync discipline %q (want none, barrier or always)", s)
}

// String returns the spec-file spelling.
func (d Discipline) String() string {
	switch d {
	case DisciplineNone:
		return "none"
	case DisciplineAlways:
		return "always"
	default:
		return "barrier"
	}
}

// The fixed virtual-time charges used when Config.Measure is off,
// loosely shaped like a datacenter NVMe drive; tests rely only on their
// determinism.
const (
	DefaultReadOpCost    = 60 * time.Microsecond  // per read command
	DefaultReadPageCost  = 2 * time.Microsecond   // per page read
	DefaultWriteOpCost   = 20 * time.Microsecond  // per write command
	DefaultWritePageCost = 3 * time.Microsecond   // per page written
	DefaultSyncCost      = 500 * time.Microsecond // per fsync
)

// Config describes a file-backed device.
type Config struct {
	// Path is the backing file; created (and truncated to a fresh
	// all-zero sparse image) by Open.
	Path string
	// Pages is the device capacity in pages. Required.
	Pages int64
	// PageSize is the sector size in bytes; 4096 when zero.
	PageSize int
	// Fsync is the durability discipline (default DisciplineBarrier).
	Fsync Discipline
	// Measure folds measured wall-clock latencies into virtual time
	// instead of charging the fixed Default*Cost values. Real-hardware
	// mode; not deterministic.
	Measure bool
}

// Dev is an open file-backed device. It implements blockdev.Host. Like
// the simulated device it is not internally locked: callers serialize
// access per shard. I/O errors from the backing file surface as
// persistent typed deverr errors on the WriteErr/ReadErr/SyncErr
// surface.
type Dev struct {
	f      *os.File
	cfg    Config
	ps     int
	n      int64
	bounce []byte // scratch for zero-fill and nil-buf I/O

	counters  blockdev.Counters
	writeHist []uint32
	fsyncs    int64

	// pendingSync carries the cost of the last barrier fsync into the
	// next I/O completion: SyncErr has no time signature, so its
	// latency is attributed to the op that follows it — in practice the
	// next write of the sync epoch, which is where a real queue would
	// feel it.
	pendingSync sim.Duration

	closed bool
}

// bounceBytes is the chunk size for zero-fill and nil-buf I/O.
const bounceBytes = 256 << 10

// Open creates (truncating any previous image) the backing file and
// returns a fresh all-zero device, matching the simulated device's
// initial state.
func Open(cfg Config) (*Dev, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("filedev: empty path")
	}
	if cfg.Pages <= 0 {
		return nil, fmt.Errorf("filedev: pages must be positive, got %d", cfg.Pages)
	}
	if cfg.PageSize == 0 {
		cfg.PageSize = 4096
	}
	if cfg.PageSize < 512 || cfg.PageSize%512 != 0 {
		return nil, fmt.Errorf("filedev: page size %d is not a multiple of 512", cfg.PageSize)
	}
	if err := os.MkdirAll(filepath.Dir(cfg.Path), 0o755); err != nil {
		return nil, fmt.Errorf("filedev: %w", err)
	}
	f, err := os.OpenFile(cfg.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filedev: %w", err)
	}
	if err := f.Truncate(0); err != nil {
		f.Close()
		return nil, fmt.Errorf("filedev: %w", err)
	}
	if err := f.Truncate(cfg.Pages * int64(cfg.PageSize)); err != nil {
		f.Close()
		return nil, fmt.Errorf("filedev: %w", err)
	}
	return &Dev{
		f:         f,
		cfg:       cfg,
		ps:        cfg.PageSize,
		n:         cfg.Pages,
		bounce:    make([]byte, bounceBytes),
		writeHist: make([]uint32, cfg.Pages),
	}, nil
}

// Fsyncs returns the cumulative number of fsync calls issued.
func (d *Dev) Fsyncs() int64 { return d.fsyncs }

// PageSize implements blockdev.Dev.
func (d *Dev) PageSize() int { return d.ps }

// Pages implements blockdev.Dev.
func (d *Dev) Pages() int64 { return d.n }

// ContentEnabled reports that reads return real data — a real file
// always retains content, so the file backend satisfies every
// content-requiring caller (WAL replay, recovery, kvtest).
func (d *Dev) ContentEnabled() bool { return true }

// Counters implements blockdev.Host.
func (d *Dev) Counters() blockdev.Counters { return d.counters }

// WriteHist implements blockdev.Host.
func (d *Dev) WriteHist() []uint32 { return d.writeHist }

// ResetInstrumentation implements blockdev.Host.
func (d *Dev) ResetInstrumentation() {
	d.counters = blockdev.Counters{}
	clear(d.writeHist)
	d.fsyncs = 0
}

// WriteErr implements blockdev.Dev. data may be nil: the page range is
// zero-filled, so accounting-only callers still produce well-defined
// on-disk state. Syscall failures surface as persistent typed errors.
func (d *Dev) WriteErr(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error) {
	if n <= 0 {
		return now, nil
	}
	if err := d.checkRangeErr(deverr.OpWrite, off, n); err != nil {
		return now, err
	}
	ps := d.ps
	if data != nil && len(data) != n*ps {
		return now, &deverr.Error{Op: deverr.OpWrite, LBA: off, Kind: deverr.KindBounds,
			Cause: fmt.Errorf("filedev: data length %d != %d pages", len(data), n)}
	}
	d.counters.BytesWritten += int64(n) * int64(ps)
	d.counters.WriteOps++
	for i := range d.writeHist[off : off+int64(n)] {
		d.writeHist[off+int64(i)]++
	}

	start := time.Now()
	byteOff := off * int64(ps)
	var err error
	if data == nil {
		err = d.zeroFill(byteOff, int64(n)*int64(ps))
	} else if _, werr := d.f.WriteAt(data, byteOff); werr != nil {
		err = werr
	}
	if err != nil {
		return now, &deverr.Error{Op: deverr.OpWrite, LBA: off, Kind: deverr.KindEIO, Cause: err}
	}
	if d.cfg.Fsync == DisciplineAlways {
		if err := d.fsync(); err != nil {
			return now, &deverr.Error{Op: deverr.OpSync, LBA: -1, Kind: deverr.KindEIO, Cause: err}
		}
	}

	done := now + d.pendingSync
	d.pendingSync = 0
	if d.cfg.Measure {
		return done + sim.Duration(time.Since(start)), nil
	}
	done += DefaultWriteOpCost + sim.Duration(n)*DefaultWritePageCost
	if d.cfg.Fsync == DisciplineAlways {
		done += DefaultSyncCost
	}
	return done, nil
}

// ReadErr implements blockdev.Dev. With a nil buf the pages are still
// read (into scratch) so measured-mode timing reflects real I/O.
func (d *Dev) ReadErr(now sim.Duration, off int64, n int, buf []byte) (sim.Duration, error) {
	if n <= 0 {
		return now, nil
	}
	if err := d.checkRangeErr(deverr.OpRead, off, n); err != nil {
		return now, err
	}
	ps := d.ps
	if buf != nil && len(buf) != n*ps {
		return now, &deverr.Error{Op: deverr.OpRead, LBA: off, Kind: deverr.KindBounds,
			Cause: fmt.Errorf("filedev: buffer length %d != %d pages", len(buf), n)}
	}
	d.counters.BytesRead += int64(n) * int64(ps)
	d.counters.ReadOps++

	start := time.Now()
	byteOff := off * int64(ps)
	var err error
	if buf == nil {
		err = d.readBounced(byteOff, int64(n)*int64(ps))
	} else if _, rerr := d.f.ReadAt(buf, byteOff); rerr != nil {
		err = rerr
	}
	if err != nil {
		return now, &deverr.Error{Op: deverr.OpRead, LBA: off, Kind: deverr.KindEIO, Cause: err}
	}

	done := now + d.pendingSync
	d.pendingSync = 0
	if d.cfg.Measure {
		return done + sim.Duration(time.Since(start)), nil
	}
	return done + DefaultReadOpCost + sim.Duration(n)*DefaultReadPageCost, nil
}

// Discard implements blockdev.Dev: punches a hole where the filesystem
// supports it (the range reads back as zeros either way), matching the
// simulated device's TRIM semantics.
func (d *Dev) Discard(off int64, n int) {
	if n <= 0 {
		return
	}
	if err := d.checkRangeErr(deverr.OpWrite, off, n); err != nil {
		panic(err)
	}
	d.counters.DiscardOps++
	d.counters.PagesDiscarded += int64(n)
	byteOff := off * int64(d.ps)
	length := int64(n) * int64(d.ps)
	if punchHole(d.f, byteOff, length) != nil {
		if err := d.zeroFill(byteOff, length); err != nil {
			panic(err) // Discard has no error channel; a dead file is loud
		}
	}
}

// Restore writes raw page content without touching counters, timing or
// the write histogram — the hook internal/faultdev uses at power-on to
// rewind the backing file to the resolved durable image. data may be
// nil to zero the range. Out-of-range requests and syscall failures
// are recoverable conditions here (the harness surfaces them as trial
// errors), so they return typed errors instead of panicking.
func (d *Dev) Restore(off int64, n int, data []byte) error {
	if n <= 0 {
		return nil
	}
	if err := d.checkRangeErr(deverr.OpRestore, off, n); err != nil {
		return err
	}
	byteOff := off * int64(d.ps)
	if data == nil {
		if err := d.zeroFill(byteOff, int64(n)*int64(d.ps)); err != nil {
			return &deverr.Error{Op: deverr.OpRestore, LBA: off, Kind: deverr.KindEIO, Cause: err}
		}
		return nil
	}
	if len(data) != n*d.ps {
		return &deverr.Error{Op: deverr.OpRestore, LBA: off, Kind: deverr.KindBounds,
			Cause: fmt.Errorf("filedev: restore length %d != %d pages", len(data), n)}
	}
	if _, err := d.f.WriteAt(data, byteOff); err != nil {
		return &deverr.Error{Op: deverr.OpRestore, LBA: off, Kind: deverr.KindEIO, Cause: err}
	}
	return nil
}

// SyncErr implements blockdev.Dev: under DisciplineBarrier it fsyncs
// the backing file — the device-level FLUSH the simulated stack only
// models. Its latency is charged to the next I/O (see pendingSync).
func (d *Dev) SyncErr() error {
	if d.cfg.Fsync != DisciplineBarrier {
		return nil
	}
	start := time.Now()
	if err := d.fsync(); err != nil {
		return &deverr.Error{Op: deverr.OpSync, LBA: -1, Kind: deverr.KindEIO, Cause: err}
	}
	if d.cfg.Measure {
		d.pendingSync += sim.Duration(time.Since(start))
	} else {
		d.pendingSync += DefaultSyncCost
	}
	return nil
}

// Close fsyncs (unless DisciplineNone) and closes the backing file.
// The image stays on disk for inspection or Reopen.
func (d *Dev) Close() error {
	if d.closed {
		return nil
	}
	d.closed = true
	if d.cfg.Fsync != DisciplineNone {
		if err := d.f.Sync(); err != nil {
			d.f.Close()
			return fmt.Errorf("filedev: %w", err)
		}
		d.fsyncs++
	}
	if err := d.f.Close(); err != nil {
		return fmt.Errorf("filedev: %w", err)
	}
	return nil
}

// Reopen closes (without fsync — durability must have come from the
// discipline) and reopens the backing file in place, preserving its
// content: the real-file analogue of recovery-by-restart. Counters and
// the write histogram survive; the Dev pointer stays valid, so a
// filesystem mounted over it keeps working.
func (d *Dev) Reopen() error {
	if !d.closed {
		if err := d.f.Close(); err != nil {
			return fmt.Errorf("filedev: %w", err)
		}
	}
	f, err := os.OpenFile(d.cfg.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("filedev: %w", err)
	}
	d.f, d.closed = f, false
	return nil
}

func (d *Dev) fsync() error {
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("filedev: fsync %s: %w", d.cfg.Path, err)
	}
	d.fsyncs++
	return nil
}

// readBounced reads length bytes at byteOff into the bounce buffer and
// drops them: a nil-buf read still does the file I/O.
func (d *Dev) readBounced(byteOff, length int64) error {
	var done int64
	for done < length {
		n := length - done
		if n > int64(len(d.bounce)) {
			n = int64(len(d.bounce))
		}
		if _, err := d.f.ReadAt(d.bounce[:n], byteOff+done); err != nil {
			return fmt.Errorf("filedev: read %s: %w", d.cfg.Path, err)
		}
		done += n
	}
	return nil
}

// zeroFill writes zeros over [byteOff, byteOff+length) using the
// bounce buffer (which readBounced may have dirtied, so clear first).
func (d *Dev) zeroFill(byteOff, length int64) error {
	clear(d.bounce)
	var done int64
	for done < length {
		n := length - done
		if n > int64(len(d.bounce)) {
			n = int64(len(d.bounce))
		}
		if _, err := d.f.WriteAt(d.bounce[:n], byteOff+done); err != nil {
			return fmt.Errorf("filedev: write %s: %w", d.cfg.Path, err)
		}
		done += n
	}
	return nil
}

func (d *Dev) checkRangeErr(op deverr.Op, off int64, n int) error {
	if off < 0 || off+int64(n) > d.n {
		return &deverr.Error{Op: op, LBA: off, Kind: deverr.KindBounds,
			Cause: fmt.Errorf("filedev: I/O [%d,+%d) beyond device end %d", off, n, d.n)}
	}
	return nil
}

var _ blockdev.Host = (*Dev)(nil)
