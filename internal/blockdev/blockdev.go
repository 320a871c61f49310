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

// Dev is the interface the filesystem layer programs against: the
// Device, a Partition, the fault-injecting and file-backed devices and
// the block-layer retry shim all implement it. Every read and write
// reports failure as a typed deverr.Error, never a panic: an
// out-of-range page run or a buffer that is not exactly n pages is a
// deverr.KindBounds error on every device.
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

// WriteErr implements Dev. The simulated device fails only on a bounds
// error.
func (d *Device) WriteErr(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error) {
	if n <= 0 {
		return now, nil
	}
	if err := d.checkErr(deverr.OpWrite, off, n, data); err != nil {
		return now, err
	}
	ps := d.ps
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
	return d.ssd.SubmitWrite(now, off, n), nil
}

// ReadErr implements Dev. The simulated device fails only on a bounds
// error.
func (d *Device) ReadErr(now sim.Duration, off int64, n int, buf []byte) (sim.Duration, error) {
	if n <= 0 {
		return now, nil
	}
	if err := d.checkErr(deverr.OpRead, off, n, buf); err != nil {
		return now, err
	}
	ps := d.ps
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
	if err := d.checkErr(deverr.OpWrite, off, n, nil); err != nil {
		panic(err) // Discard has no error channel
	}
	d.counters.DiscardOps++
	d.counters.PagesDiscarded += int64(n)
	if d.content != nil {
		for i := 0; i < n; i++ {
			delete(d.content, off+int64(i))
		}
	}
	d.ssd.Trim(off, n)
}

// ResetInstrumentation zeroes the iostat counters and the LBA histogram.
// The harness calls it after the load phase so that plots cover only the
// measured run, as in the paper.
func (d *Device) ResetInstrumentation() {
	d.counters = Counters{}
	clear(d.writeHist)
}

// checkErr returns the deverr.KindBounds error for an I/O of n pages at
// off that leaves the device, or whose buf is non-nil and not exactly n
// pages long.
func (d *Device) checkErr(op deverr.Op, off int64, n int, buf []byte) error {
	if off < 0 || off+int64(n) > d.Pages() {
		return &deverr.Error{Op: op, LBA: off, Kind: deverr.KindBounds,
			Cause: fmt.Errorf("blockdev: I/O [%d,+%d) beyond device end %d", off, n, d.Pages())}
	}
	if buf != nil && len(buf) != n*d.ps {
		return &deverr.Error{Op: op, LBA: off, Kind: deverr.KindBounds,
			Cause: fmt.Errorf("blockdev: buffer length %d != %d pages", len(buf), n)}
	}
	return nil
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

// Discard implements Dev.
func (p *Partition) Discard(off int64, n int) {
	if err := p.checkErr(deverr.OpWrite, off, n); err != nil {
		panic(err) // Discard has no error channel
	}
	p.dev.Discard(p.first+off, n)
}

// WriteErr implements Dev: I/O beyond the partition is a bounds error
// even where the parent device would accept it.
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

var (
	_ Dev  = (*Device)(nil)
	_ Dev  = (*Partition)(nil)
	_ Host = (*Device)(nil)
)
