// Package blockdev provides the host-visible block layer over a simulated
// flash device: a Geometry holding the one bounds rule every device
// applies, a Meter keeping iostat-style traffic counters and, once a
// reader asks for it, a blktrace-style per-LBA write histogram (the
// paper's Fig 4 instrumentation), partitioning as a page limit (used
// for software over-provisioning, pitfall #6), and an optional content
// store that retains written bytes for correctness tests while staying
// out of the way at benchmark scale.
package blockdev

import (
	"fmt"
	"slices"

	"ptsbench/internal/deverr"
	"ptsbench/internal/flash"
	"ptsbench/internal/sim"
)

// Dev is the interface the filesystem layer programs against: the
// Device, the fault-injecting and file-backed devices and the
// block-layer retry shim all implement it. Every read and write reports
// failure as a typed deverr.Error, never a panic: an out-of-range page
// run or a buffer that is not exactly n pages is a deverr.KindBounds
// error on every device (see Geometry.Check).
type Dev interface {
	// PageSize returns the sector size in bytes.
	PageSize() int
	// Pages returns the capacity in pages.
	Pages() int64
	// ContentEnabled reports whether reads return the bytes written
	// (replay and recovery need it) rather than leaving buf untouched.
	ContentEnabled() bool
	// Discard TRIMs n pages at offset off (used by discard-mounted
	// filesystems and blkdiscard).
	Discard(off int64, n int)
	// WriteErr writes n pages at page offset off starting at virtual
	// time now, returning the completion time. data may be nil
	// (accounting only) or must be exactly n*PageSize bytes. Devices
	// that can fail (a fault-injecting wrapper, a real backing file)
	// report it here; the plain simulated device fails only on a bounds
	// error.
	WriteErr(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error)
	// ReadErr reads n pages at page offset off, returning the completion
	// time. If content is enabled and buf is non-nil, buf (exactly
	// n*PageSize bytes) is filled with the stored bytes.
	ReadErr(now sim.Duration, off int64, n int, buf []byte) (sim.Duration, error)
	// SyncErr is the error-returning durability barrier: everything
	// written before it survives a power cut once it returns nil — the
	// device-level effect of an fsync/FLUSH command. On devices without
	// a volatile cache it is a no-op returning nil; on devices that
	// distinguish acknowledged writes from durable ones (a
	// fault-injecting wrapper, a real backing file) it can fail, and a
	// fault plan can make it lie. Callers reach it through
	// extfs.FS.Barrier.
	SyncErr() error
}

// Host is the instrumented-device surface the store and the metrics
// collector consume: a Dev that also exposes iostat counters and, when
// kept, the per-LBA write histogram. Both the simulated Device and the
// file-backed internal/filedev.Dev implement it, which is what lets
// one experiment runner serve either authority.
type Host interface {
	Dev
	// Counters returns a copy of the cumulative host I/O counters.
	Counters() Counters
	// KeepWriteHist starts a zeroed per-LBA write histogram; writes
	// before it are not in it. Only a reader of WriteHist calls it, so
	// a run that reports no LBA distribution pays nothing for one.
	KeepWriteHist()
	// WriteHist exposes the per-LBA write-count histogram (not a
	// copy; callers must not mutate it), or nil until KeepWriteHist.
	WriteHist() []uint32
	// ResetInstrumentation zeroes the counters and a kept histogram.
	ResetInstrumentation()
}

// Counters are iostat-style cumulative counters, in bytes and operations.
type Counters struct {
	BytesWritten int64
	BytesRead    int64
	WriteOps     int64
	ReadOps      int64
	// DiscardOps and PagesDiscarded account TRIM traffic (iostat's
	// dsc/s and drqm), which is otherwise invisible in the read/write
	// counters: a discard moves no data but changes device state.
	DiscardOps     int64
	PagesDiscarded int64
}

// Sub returns c - o, for per-interval deltas.
func (c Counters) Sub(o Counters) Counters {
	return Counters{
		BytesWritten:   c.BytesWritten - o.BytesWritten,
		BytesRead:      c.BytesRead - o.BytesRead,
		WriteOps:       c.WriteOps - o.WriteOps,
		ReadOps:        c.ReadOps - o.ReadOps,
		DiscardOps:     c.DiscardOps - o.DiscardOps,
		PagesDiscarded: c.PagesDiscarded - o.PagesDiscarded,
	}
}

// Add returns c + o, for aggregating the per-shard devices of a
// sharded store into one host-visible view.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		BytesWritten:   c.BytesWritten + o.BytesWritten,
		BytesRead:      c.BytesRead + o.BytesRead,
		WriteOps:       c.WriteOps + o.WriteOps,
		ReadOps:        c.ReadOps + o.ReadOps,
		DiscardOps:     c.DiscardOps + o.DiscardOps,
		PagesDiscarded: c.PagesDiscarded + o.PagesDiscarded,
	}
}

// Geometry is a device's shape, its sector size and capacity in pages,
// and the one bounds rule every device applies to a request.
type Geometry struct {
	ps    int
	pages int64
}

// NewGeometry returns the shape of pages pages of pageSize bytes.
func NewGeometry(pageSize int, pages int64) Geometry { return Geometry{pageSize, pages} }

// PageSize implements Dev.
func (g Geometry) PageSize() int { return g.ps }

// Pages implements Dev.
func (g Geometry) Pages() int64 { return g.pages }

// Check returns the deverr.KindBounds error for a request of n pages at
// off that leaves the device, or whose buf is non-nil and not exactly n
// pages long. A refused request must reach nothing: no counter, no
// clock, no media.
func (g Geometry) Check(op deverr.Op, off int64, n int, buf []byte) error {
	if off < 0 || off+int64(n) > g.pages {
		return &deverr.Error{Op: op, LBA: off, Kind: deverr.KindBounds,
			Cause: fmt.Errorf("blockdev: I/O [%d,+%d) beyond device end %d", off, n, g.pages)}
	}
	if buf != nil && len(buf) != n*g.ps {
		return &deverr.Error{Op: op, LBA: off, Kind: deverr.KindBounds,
			Cause: fmt.Errorf("blockdev: buffer length %d != %d pages", len(buf), n)}
	}
	return nil
}

// Meter is a device authority's host instrumentation: the iostat
// counters and, once KeepWriteHist is called, the per-LBA write
// histogram, which counts writes per logical page like blktrace
// post-processing and powers the Fig 4 CDF. Like a real trace, the
// histogram costs only while it is kept: 4 bytes per page of span and
// a read-modify-write per page written. Both authorities count through
// the Meter, which is what makes their instruments comparable op for
// op.
type Meter struct {
	counters  Counters
	span      int64
	writeHist []uint32 // nil until KeepWriteHist
}

// NewMeter returns a zeroed meter whose histogram, once kept, spans
// pages pages. It allocates no per-page state.
func NewMeter(pages int64) Meter { return Meter{span: pages} }

// Counters returns a copy of the cumulative host I/O counters.
func (m *Meter) Counters() Counters { return m.counters }

// KeepWriteHist implements Host: it starts a zeroed histogram over the
// meter's span.
func (m *Meter) KeepWriteHist() { m.writeHist = make([]uint32, m.span) }

// WriteHist implements Host.
func (m *Meter) WriteHist() []uint32 { return m.writeHist }

// ResetInstrumentation zeroes the iostat counters and a kept LBA
// histogram, which stays kept. The harness calls it after the load
// phase so that plots cover only the measured run, as in the paper.
func (m *Meter) ResetInstrumentation() {
	m.counters = Counters{}
	clear(m.writeHist)
}

// CountWrite counts a write of n pages of ps bytes at off.
func (m *Meter) CountWrite(off int64, n, ps int) {
	m.counters.BytesWritten += int64(n) * int64(ps)
	m.counters.WriteOps++
	if m.writeHist == nil {
		return
	}
	// One bounds check for the whole run; the compiler keeps the rest
	// branch-free.
	for i := range m.writeHist[off : off+int64(n)] {
		m.writeHist[off+int64(i)]++
	}
}

// CountRead counts a read of n pages of ps bytes.
func (m *Meter) CountRead(n, ps int) {
	m.counters.BytesRead += int64(n) * int64(ps)
	m.counters.ReadOps++
}

// CountDiscard counts a TRIM of n pages.
func (m *Meter) CountDiscard(n int) {
	m.counters.DiscardOps++
	m.counters.PagesDiscarded += int64(n)
}

// Device wraps a flash.Device with host-side instrumentation.
type Device struct {
	Geometry
	Meter
	ssd *flash.Device

	// content, when non-nil, retains the last-written bytes per page.
	content map[int64][]byte
}

// New wraps ssd. Neither the write histogram (see KeepWriteHist) nor
// the content store is kept until asked for.
func New(ssd *flash.Device) *Device {
	return &Device{
		Geometry: NewGeometry(ssd.PageSize(), ssd.LogicalPages()),
		Meter:    NewMeter(ssd.LogicalPages()),
		ssd:      ssd,
	}
}

// Partition limits the host-visible range to [0, pages): requests
// beyond it are bounds errors even where the flash device would accept
// them. The harness uses it to model software over-provisioning, a
// smaller partition plus a never-written trimmed remainder; a kept
// write histogram still spans the whole device, so the fraction of
// LBAs written counts the remainder. Call it before any I/O.
func (d *Device) Partition(pages int64) error {
	if pages <= 0 || pages > d.ssd.LogicalPages() {
		return fmt.Errorf("blockdev: partition of %d pages on a %d-page device", pages, d.ssd.LogicalPages())
	}
	d.pages = pages
	return nil
}

// EnableContentStore makes the device retain written bytes so that reads
// return real data. Tests and small examples enable it; benchmark-scale
// experiments leave it off.
func (d *Device) EnableContentStore() {
	if d.content == nil {
		d.content = make(map[int64][]byte)
	}
}

// ContentEnabled reports whether written bytes are retained.
func (d *Device) ContentEnabled() bool { return d.content != nil }

// SSD exposes the underlying simulated flash device (for SMART access).
func (d *Device) SSD() *flash.Device { return d.ssd }

// WriteErr implements Dev. The simulated device fails only on a bounds
// error.
func (d *Device) WriteErr(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error) {
	if n <= 0 {
		return now, nil
	}
	if err := d.Check(deverr.OpWrite, off, n, data); err != nil {
		return now, err
	}
	ps := d.ps
	d.CountWrite(off, n, ps)
	if d.content != nil && data != nil {
		for i := 0; i < n; i++ {
			// Overwrites reuse the retained buffer: a fresh allocation
			// per page would make steady-state writes O(page) garbage.
			page := d.content[off+int64(i)]
			if page == nil {
				page = make([]byte, ps)
				d.content[off+int64(i)] = page
			}
			copy(page, data[i*ps:(i+1)*ps])
		}
	}
	return d.ssd.SubmitWrite(now, off, n), nil
}

// ReadErr implements Dev. The simulated device fails only on a bounds
// error.
func (d *Device) ReadErr(now sim.Duration, off int64, n int, buf []byte) (sim.Duration, error) {
	if n <= 0 {
		return now, nil
	}
	if err := d.Check(deverr.OpRead, off, n, buf); err != nil {
		return now, err
	}
	ps := d.ps
	d.CountRead(n, ps)
	if d.content != nil && buf != nil {
		for i := 0; i < n; i++ {
			page := d.content[off+int64(i)]
			dst := buf[i*ps : (i+1)*ps]
			if page == nil {
				clear(dst)
			} else {
				copy(dst, page)
			}
		}
	}
	return d.ssd.SubmitRead(now, off, n), nil
}

// WriteAt is WriteErr that panics on error. It is not part of Dev and
// no root code calls it: it exists only because benchmark/ does and no
// change may touch benchmark/ beside other code. Deleting it finishes
// step (c) of ROADMAP's benchmark-boundary chain, once step (b) moves
// benchmark/ to WriteErr/ReadErr.
func (d *Device) WriteAt(now sim.Duration, off int64, n int, data []byte) sim.Duration {
	done, err := d.WriteErr(now, off, n, data)
	if err != nil {
		panic(err)
	}
	return done
}

// ReadAt is ReadErr that panics on error; see WriteAt.
func (d *Device) ReadAt(now sim.Duration, off int64, n int, buf []byte) sim.Duration {
	done, err := d.ReadErr(now, off, n, buf)
	if err != nil {
		panic(err)
	}
	return done
}

// SyncErr implements Dev: the simulated device has no volatile cache,
// so every acknowledged write is already durable.
func (d *Device) SyncErr() error { return nil }

// Discard implements Dev.
func (d *Device) Discard(off int64, n int) {
	if n <= 0 {
		return
	}
	if err := d.Check(deverr.OpWrite, off, n, nil); err != nil {
		panic(err) // Discard has no error channel
	}
	d.CountDiscard(n)
	if d.content != nil {
		for i := 0; i < n; i++ {
			delete(d.content, off+int64(i))
		}
	}
	d.ssd.Trim(off, n)
}

// CombinedWriteCDF returns the cumulative distribution of per-LBA write
// counts with LBAs sorted by decreasing write count, exactly as the
// paper's Fig 4 plots it: point i of the result is the fraction of all
// writes that hit the i/points most-written fraction of the LBA space.
// The slice has points+1 entries covering x = 0..1 inclusive. Several
// devices (the per-shard devices of a sharded store) merge into one
// distribution: each shard's LBAs keep their own counts, so the result
// is the distribution over the union of the LBA spaces — what a single
// device serving the same traffic would show.
func CombinedWriteCDF(devs []Host, points int) []float64 {
	var total int
	for _, d := range devs {
		total += len(d.WriteHist())
	}
	counts := make([]uint32, 0, total)
	for _, d := range devs {
		counts = append(counts, d.WriteHist()...)
	}
	return writeCDFOf(counts, points)
}

// CombinedFractionLBAsWritten returns the fraction of the union of the
// devices' LBA spaces written at least once — the paper's "WiredTiger
// does not write to ≈45% of the LBAs" observation.
func CombinedFractionLBAsWritten(devs []Host) float64 {
	var written, total int64
	for _, d := range devs {
		total += int64(len(d.WriteHist()))
		for _, c := range d.WriteHist() {
			if c > 0 {
				written++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(written) / float64(total)
}

// writeCDFOf consumes (sorts in place) a per-LBA write-count histogram.
func writeCDFOf(counts []uint32, points int) []float64 {
	// Ascending radix-free sort then reverse: slices.Sort on a plain
	// uint32 slice avoids sort.Slice's per-compare closure over the
	// device-sized histogram.
	slices.Sort(counts)
	for i, j := 0, len(counts)-1; i < j; i, j = i+1, j-1 {
		counts[i], counts[j] = counts[j], counts[i]
	}
	var total float64
	for _, c := range counts {
		total += float64(c)
	}
	cdf := make([]float64, points+1)
	if total == 0 {
		return cdf
	}
	var cum float64
	next := 1 // next output index
	for i, c := range counts {
		cum += float64(c)
		for next <= points && (i+1)*points >= next*len(counts) {
			cdf[next] = cum / total
			next++
		}
	}
	for ; next <= points; next++ {
		cdf[next] = 1
	}
	return cdf
}

var _ Host = (*Device)(nil)
