// Package blockdev provides the host-visible block layer over a simulated
// flash device: iostat-style traffic counters, a blktrace-style per-LBA
// write histogram (the paper's Fig 4 instrumentation), partitioning (used
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

// Dev is the interface the filesystem layer programs against. Both the
// whole Device and a Partition implement it.
type Dev interface {
	// PageSize returns the sector size in bytes.
	PageSize() int
	// Pages returns the capacity in pages.
	Pages() int64
	// WriteAt writes n pages at page offset off starting at virtual time
	// now, returning the completion time. data may be nil (accounting
	// only) or must be exactly n*PageSize bytes.
	WriteAt(now sim.Duration, off int64, n int, data []byte) sim.Duration
	// ReadAt reads n pages at page offset off, returning the completion
	// time. If a content store is enabled and buf is non-nil, buf is
	// filled with the stored bytes.
	ReadAt(now sim.Duration, off int64, n int, buf []byte) sim.Duration
	// Discard TRIMs n pages at offset off (used by discard-mounted
	// filesystems and blkdiscard).
	Discard(off int64, n int)
	// WriteErr is the error-returning form of WriteAt: devices that can
	// fail (a fault-injecting wrapper, a real backing file) report the
	// failure as a typed deverr.Error instead of panicking. Plain
	// simulated devices never fail and always return a nil error.
	WriteErr(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error)
	// ReadErr is the error-returning form of ReadAt.
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
// collector consume: a Dev that also exposes iostat counters and the
// per-LBA write histogram. Both the simulated Device and the
// file-backed internal/filedev.Dev implement it, which is what lets
// one experiment runner serve either authority.
type Host interface {
	Dev
	// Counters returns a copy of the cumulative host I/O counters.
	Counters() Counters
	// WriteHist exposes the per-LBA write-count histogram (not a
	// copy; callers must not mutate it).
	WriteHist() []uint32
	// ResetInstrumentation zeroes the counters and the histogram.
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

// Device wraps a flash.Device with host-side instrumentation.
type Device struct {
	ssd      *flash.Device
	ps       int // cached ssd.PageSize(), consulted on every I/O
	counters Counters

	// writeHist counts writes per logical page, like blktrace
	// post-processing; it powers the Fig 4 CDF.
	writeHist []uint32

	// content, when non-nil, retains the last-written bytes per page.
	content map[int64][]byte
}

// New wraps ssd. The write histogram is always maintained (4 bytes per
// page); the content store starts disabled.
func New(ssd *flash.Device) *Device {
	return &Device{
		ssd:       ssd,
		ps:        ssd.PageSize(),
		writeHist: make([]uint32, ssd.LogicalPages()),
	}
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

// PageSize implements Dev.
func (d *Device) PageSize() int { return d.ps }

// Pages implements Dev.
func (d *Device) Pages() int64 { return d.ssd.LogicalPages() }

// Counters returns a copy of the cumulative host I/O counters.
func (d *Device) Counters() Counters { return d.counters }

// WriteHist implements Host.
func (d *Device) WriteHist() []uint32 { return d.writeHist }

// WriteAt implements Dev.
func (d *Device) WriteAt(now sim.Duration, off int64, n int, data []byte) sim.Duration {
	if n <= 0 {
		return now
	}
	d.checkRange(off, n)
	ps := d.ps
	if data != nil && len(data) != n*ps {
		panic(fmt.Sprintf("blockdev: data length %d != %d pages", len(data), n))
	}
	d.counters.BytesWritten += int64(n) * int64(ps)
	d.counters.WriteOps++
	// One bounds check for the whole run; the compiler keeps the rest
	// branch-free.
	for i := range d.writeHist[off : off+int64(n)] {
		d.writeHist[off+int64(i)]++
	}
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
	return d.ssd.SubmitWrite(now, off, n)
}

// ReadAt implements Dev.
func (d *Device) ReadAt(now sim.Duration, off int64, n int, buf []byte) sim.Duration {
	if n <= 0 {
		return now
	}
	d.checkRange(off, n)
	ps := d.ps
	if buf != nil && len(buf) != n*ps {
		panic(fmt.Sprintf("blockdev: buffer length %d != %d pages", len(buf), n))
	}
	d.counters.BytesRead += int64(n) * int64(ps)
	d.counters.ReadOps++
	if d.content != nil && buf != nil {
		for i := 0; i < n; i++ {
			page := d.content[off+int64(i)]
			dst := buf[i*ps : (i+1)*ps]
			if page == nil {
				for j := range dst {
					dst[j] = 0
				}
			} else {
				copy(dst, page)
			}
		}
	}
	return d.ssd.SubmitRead(now, off, n)
}

// WriteErr implements Dev. The simulated device cannot fail.
func (d *Device) WriteErr(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error) {
	return d.WriteAt(now, off, n, data), nil
}

// ReadErr implements Dev. The simulated device cannot fail.
func (d *Device) ReadErr(now sim.Duration, off int64, n int, buf []byte) (sim.Duration, error) {
	return d.ReadAt(now, off, n, buf), nil
}

// SyncErr implements Dev: the simulated device has no volatile cache,
// so every acknowledged write is already durable.
func (d *Device) SyncErr() error { return nil }

// Discard implements Dev.
func (d *Device) Discard(off int64, n int) {
	if n <= 0 {
		return
	}
	d.checkRange(off, n)
	d.counters.DiscardOps++
	d.counters.PagesDiscarded += int64(n)
	if d.content != nil {
		for i := 0; i < n; i++ {
			delete(d.content, off+int64(i))
		}
	}
	d.ssd.Trim(off, n)
}

// BlkDiscardAll trims the entire device (the paper's "Trimmed" initial
// state) and clears the content store.
func (d *Device) BlkDiscardAll() {
	if d.content != nil {
		d.content = make(map[int64][]byte)
	}
	d.counters.DiscardOps++
	d.counters.PagesDiscarded += d.Pages()
	d.ssd.TrimAll()
}

// ResetInstrumentation zeroes the iostat counters and the LBA histogram.
// The harness calls it after the load phase so that plots cover only the
// measured run, as in the paper.
func (d *Device) ResetInstrumentation() {
	d.counters = Counters{}
	clear(d.writeHist)
}

func (d *Device) checkRange(off int64, n int) {
	if off < 0 || off+int64(n) > d.Pages() {
		panic(fmt.Sprintf("blockdev: I/O [%d,+%d) beyond device end %d", off, n, d.Pages()))
	}
}

// WriteCDF returns the cumulative distribution of per-LBA write counts
// with LBAs sorted by decreasing write count, exactly as the paper's
// Fig 4 plots it: point i of the result is the fraction of all writes
// that hit the i/len most-written fraction of the LBA space. The slice
// has `points+1` entries covering x = 0..1 inclusive.
func (d *Device) WriteCDF(points int) []float64 {
	counts := make([]uint32, len(d.writeHist))
	copy(counts, d.writeHist)
	return writeCDFOf(counts, points)
}

// CombinedWriteCDF merges the write histograms of several devices (the
// per-shard devices of a sharded store) into one WriteCDF: each shard's
// LBAs keep their own counts, so the result is the distribution over
// the union of the LBA spaces — what a single device serving the same
// traffic would show. For a single device it is identical to WriteCDF.
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

// CombinedFractionLBAsWritten is FractionLBAsWritten over the union of
// several devices' LBA spaces.
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

// FractionLBAsWritten returns the fraction of the LBA space written at
// least once — the paper's "WiredTiger does not write to ≈45% of the
// LBAs" observation.
func (d *Device) FractionLBAsWritten() float64 {
	var written int64
	for _, c := range d.writeHist {
		if c > 0 {
			written++
		}
	}
	return float64(written) / float64(len(d.writeHist))
}

// Partition is a contiguous page range of a Device exposed as a Dev. The
// harness uses partitions to model software over-provisioning: a smaller
// partition plus a never-written trimmed remainder.
type Partition struct {
	dev   *Device
	first int64
	pages int64
}

// Partition carves [firstPage, firstPage+pages) from the device.
func (d *Device) Partition(firstPage, pages int64) (*Partition, error) {
	if firstPage < 0 || pages <= 0 || firstPage+pages > d.Pages() {
		return nil, fmt.Errorf("blockdev: partition [%d,+%d) outside device of %d pages",
			firstPage, pages, d.Pages())
	}
	return &Partition{dev: d, first: firstPage, pages: pages}, nil
}

// PageSize implements Dev.
func (p *Partition) PageSize() int { return p.dev.PageSize() }

// Pages implements Dev.
func (p *Partition) Pages() int64 { return p.pages }

// WriteAt implements Dev.
func (p *Partition) WriteAt(now sim.Duration, off int64, n int, data []byte) sim.Duration {
	p.check(off, n)
	return p.dev.WriteAt(now, p.first+off, n, data)
}

// ReadAt implements Dev.
func (p *Partition) ReadAt(now sim.Duration, off int64, n int, buf []byte) sim.Duration {
	p.check(off, n)
	return p.dev.ReadAt(now, p.first+off, n, buf)
}

// Discard implements Dev.
func (p *Partition) Discard(off int64, n int) {
	p.check(off, n)
	p.dev.Discard(p.first+off, n)
}

// WriteErr implements Dev: a range violation is reported as a typed
// bounds error instead of a panic; the parent device cannot fail.
func (p *Partition) WriteErr(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error) {
	if err := p.checkErr(deverr.OpWrite, off, n); err != nil {
		return now, err
	}
	return p.dev.WriteErr(now, p.first+off, n, data)
}

// ReadErr implements Dev (see WriteErr).
func (p *Partition) ReadErr(now sim.Duration, off int64, n int, buf []byte) (sim.Duration, error) {
	if err := p.checkErr(deverr.OpRead, off, n); err != nil {
		return now, err
	}
	return p.dev.ReadErr(now, p.first+off, n, buf)
}

// SyncErr implements Dev, delegating to the parent device.
func (p *Partition) SyncErr() error { return p.dev.SyncErr() }

func (p *Partition) checkErr(op deverr.Op, off int64, n int) error {
	if off < 0 || off+int64(n) > p.pages {
		return &deverr.Error{Op: op, LBA: off, Kind: deverr.KindBounds,
			Cause: fmt.Errorf("blockdev: partition I/O [%d,+%d) beyond end %d", off, n, p.pages)}
	}
	return nil
}

// ContentEnabled reports whether the parent device retains content.
func (p *Partition) ContentEnabled() bool { return p.dev.ContentEnabled() }

func (p *Partition) check(off int64, n int) {
	if off < 0 || off+int64(n) > p.pages {
		panic(fmt.Sprintf("blockdev: partition I/O [%d,+%d) beyond end %d", off, n, p.pages))
	}
}

var (
	_ Dev  = (*Device)(nil)
	_ Dev  = (*Partition)(nil)
	_ Host = (*Device)(nil)
)
