package flash

import (
	"time"

	"ptsbench/internal/sim"
)

// Device is a simulated flash SSD. It combines the FTL (mapping, GC) with
// a service-time model and a lane-parallel dispatch queue, so that
// callers obtain virtual completion times for every request. Device is
// not safe for concurrent use; the whole simulation is single-threaded
// and deterministic.
//
// Internal parallelism: the device exposes Channels × Ways independent
// service lanes (see Profile). Logical pages stripe round-robin over the
// lanes, each lane running at 1/lanes of the device bandwidth, so
// requests submitted at overlapping virtual times — a host queue depth
// greater than one — genuinely overlap as long as they land on distinct
// lanes. With one lane (every stock profile's default) the device is the
// classic single FIFO of the paper's model.
//
// Device does not store data content: it accounts I/O and maintains the
// logical-to-physical state that drives garbage collection. Content
// retention for correctness tests lives one layer up, in
// internal/blockdev.
type Device struct {
	cfg  Config
	ftl  *ftl
	res  *sim.MultiResource
	noGC bool

	// Derived per-page service times. The int* rates are device-wide;
	// the lane* variants are the per-lane cost of one page (device rate
	// × lane count), which is what striped submission charges.
	intReadPerPage   time.Duration
	intWritePerPage  time.Duration
	cacheWritePage   time.Duration
	laneReadPerPage  time.Duration
	laneWritePerPage time.Duration
	laneIntRead      time.Duration
	laneIntWrite     time.Duration
	laneWork         []gcWork // per-request scratch, len = lanes

	// Write-back cache state (enabled when cacheCapPages > 0). The cache
	// absorbs host writes at cache speed and destages them to the FTL in
	// the background at the internal write rate. pending is a FIFO of
	// page writes awaiting destage.
	cacheCapPages int64
	cacheFill     int64
	pending       []pendingRange
	pendingHead   int // index of first live entry in pending
	drainCursor   sim.Duration
}

type pendingRange struct {
	lpn int64
	n   int64
}

// NewDevice validates cfg and constructs the simulated SSD in trimmed
// (factory-fresh) state.
func NewDevice(cfg Config) (*Device, error) {
	cfg, err := cfg.Validate()
	if err != nil {
		return nil, err
	}
	lanes := cfg.Profile.ParallelLanes()
	d := &Device{
		cfg:      cfg,
		res:      sim.NewMultiResource(lanes),
		noGC:     cfg.Profile.NoGC,
		laneWork: make([]gcWork, lanes),
	}
	// NoGC media still get an FTL: GC never runs for them (writes bypass
	// ftl.write), but the l2p table backs the mapped-pages bookkeeping
	// used by the utilization metrics.
	d.ftl = newFTL(cfg)
	ps := int64(cfg.PageSize)
	d.intReadPerPage = bwTime(ps, cfg.Profile.InternalReadBW)
	d.intWritePerPage = bwTime(ps, cfg.Profile.InternalWriteBW)
	d.laneReadPerPage = bwTime(ps, cfg.Profile.ReadBW) * time.Duration(lanes)
	d.laneWritePerPage = bwTime(ps, cfg.Profile.WriteBW) * time.Duration(lanes)
	d.laneIntRead = d.intReadPerPage * time.Duration(lanes)
	d.laneIntWrite = d.intWritePerPage * time.Duration(lanes)
	if cfg.Profile.CacheBytes > 0 {
		d.cacheCapPages = cfg.Profile.CacheBytes / ps
		d.cacheWritePage = bwTime(ps, cfg.Profile.CacheWriteBW)
	}
	return d, nil
}

// bwTime converts a byte count at a bandwidth into a duration.
func bwTime(bytes, bw int64) time.Duration {
	if bw <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / float64(bw) * float64(time.Second))
}

// Config returns the validated configuration.
func (d *Device) Config() Config { return d.cfg }

// PageSize returns the device page (sector) size in bytes.
func (d *Device) PageSize() int { return d.cfg.PageSize }

// LogicalPages returns the host-visible capacity in pages.
func (d *Device) LogicalPages() int64 { return d.cfg.logicalPages() }

// Stats returns a copy of the cumulative SMART-style counters.
func (d *Device) Stats() Stats { return d.ftl.stats }

// gcTime converts FTL-internal work into device time at device-wide
// internal rates (used by the write-back cache's destage engine, which
// models the drive's internal machinery as a whole).
func (d *Device) gcTime(w gcWork) time.Duration {
	return time.Duration(w.relocated)*(d.intReadPerPage+d.intWritePerPage) +
		time.Duration(w.erases)*d.cfg.Profile.EraseTime
}

// laneGCTime converts FTL-internal work into the service time of the
// single lane (die) whose write triggered it: relocations run at
// per-lane internal rates, erases take their full per-block time. With
// one lane this equals gcTime.
func (d *Device) laneGCTime(w gcWork) time.Duration {
	return time.Duration(w.relocated)*(d.laneIntRead+d.laneIntWrite) +
		time.Duration(w.erases)*d.cfg.Profile.EraseTime
}

// laneCount returns the number of pages of a contiguous n-page striped
// request that land on the k-th involved lane (k = 0 holds the request's
// first page): pages lpn+k, lpn+k+lanes, lpn+k+2·lanes, …
func laneCount(n, k, lanes int) int {
	return (n - k + lanes - 1) / lanes
}

// submit dispatches an n-page request starting at logical page lpn whose
// pages all cost the same perPage service time: page lpn+i lands on lane
// (lpn+i) mod lanes (striped placement) and each involved lane is charged
// its page count in closed form — O(min(n, lanes)) arithmetic, no
// per-page work — plus, for a write, the GC work its pages caused
// (work[lane], filled by ftl.write; work is nil for reads and for NoGC
// media). The request's fixed command overhead (controller/command
// processing) is charged once, on the lane holding the first page, rather
// than per lane — so a multi-page request occupies the array for its
// data-transfer time plus a single command setup, which is what lets
// overlapping requests scale throughput up to the lane count instead of
// drowning in replicated setup costs. All involved lanes start at now;
// the request completes when its slowest lane finishes.
func (d *Device) submit(now sim.Duration, lpn int64, n int,
	fixed, perPage time.Duration, work []gcWork) sim.Duration {
	lanes := len(d.laneWork)
	lead := int(lpn % int64(lanes))
	done := now
	for k := 0; k < min(n, lanes); k++ {
		lane := (lead + k) % lanes
		svc := time.Duration(laneCount(n, k, lanes)) * perPage
		if k == 0 {
			svc += fixed
		}
		if work != nil {
			svc += d.laneGCTime(work[lane])
		}
		if end := d.res.AcquireLane(lane, now, svc); end > done {
			done = end
		}
	}
	return done
}

// SubmitWrite submits a write of n pages starting at logical page lpn at
// virtual time now, and returns its completion time. Pages stripe over
// the device's internal lanes; on a single-lane device the request is
// FIFO-queued behind all previously submitted requests. The n pages count
// as host writes here, whichever path then programs them.
func (d *Device) SubmitWrite(now sim.Duration, lpn int64, n int) sim.Duration {
	if n <= 0 {
		return now
	}
	d.checkRange(lpn, n)
	d.ftl.stats.HostPagesWritten += int64(n)
	if d.noGC {
		d.ftl.stats.FlashPagesWritten += int64(n)
		d.ftl.markMappedRange(lpn, int64(n))
		return d.submit(now, lpn, n, d.cfg.Profile.WriteFixed, d.laneWritePerPage, nil)
	}
	if d.cacheCapPages > 0 {
		return d.cachedWrite(now, lpn, n)
	}
	work := d.laneWork
	clear(work)
	d.ftl.write(lpn, int64(n), work)
	return d.submit(now, lpn, n, d.cfg.Profile.WriteFixed, d.laneWritePerPage, work)
}

// serialWrite is ftl.write with all the GC work summed into one value,
// for the paths that charge it device-wide rather than per lane: the
// write-back cache's write-through and destage, and preconditioning.
func (d *Device) serialWrite(lpn, n int64) gcWork {
	var w [1]gcWork
	d.ftl.write(lpn, n, w[:])
	return w[0]
}

// cachedWrite implements the write-back cache path: writes land in the
// cache at cache speed; if the cache is full the request stalls while
// pages are force-destaged at the internal flash rate. This is the
// mechanism behind the consumer-SSD burst stalls in the paper's Fig 10.
func (d *Device) cachedWrite(now sim.Duration, lpn int64, n int) sim.Duration {
	d.destageTo(now)
	var stall time.Duration
	need := int64(n)
	if d.cacheFill+need > d.cacheCapPages {
		// Force-destage until the request fits (or the queue drains).
		t := now
		if d.drainCursor > t {
			t = d.drainCursor
		}
		toFree := d.cacheFill + need - d.cacheCapPages
		if toFree > d.cacheFill {
			toFree = d.cacheFill
		}
		t += d.destagePages(toFree)
		d.drainCursor = t
		if t > now {
			stall = t - now
		}
		if d.cacheFill+need > d.cacheCapPages {
			// Request larger than the whole cache: write through the
			// remainder at internal speed.
			over := d.cacheFill + need - d.cacheCapPages
			w := d.serialWrite(lpn, over)
			stall += time.Duration(over)*d.intWritePerPage + d.gcTime(w)
			lpn += over
			need -= over
		}
	}
	if need > 0 {
		d.pending = append(d.pending, pendingRange{lpn: lpn, n: need})
		d.cacheFill += need
	}
	service := stall + d.cfg.Profile.CacheWriteFixed + time.Duration(need)*d.cacheWritePage
	// The write-back cache is a single controller front-end (DRAM/SLC
	// port): its bandwidth does not multiply with the flash lane count,
	// so cached writes always serialize through lane 0. On a one-lane
	// device this is exactly the classic shared FIFO.
	return d.res.AcquireLane(0, now, service)
}

// nextPendingRun returns the oldest live pending range, or nil when the
// destage queue is empty (compacting it away in that case).
func (d *Device) nextPendingRun() *pendingRange {
	for d.pendingHead < len(d.pending) && d.pending[d.pendingHead].n == 0 {
		d.pendingHead++
	}
	if d.pendingHead >= len(d.pending) {
		d.pending = d.pending[:0]
		d.pendingHead = 0
		return nil
	}
	return &d.pending[d.pendingHead]
}

// advancePendingHead retires the (fully drained) head range, compacting
// the dead prefix when it dominates the slice: a long run that appends
// and destages in lockstep never fully drains the queue, so without this
// the slice (and its dead prefix) would grow for the life of the device.
func (d *Device) advancePendingHead() {
	d.pendingHead++
	if d.pendingHead >= len(d.pending) {
		d.pending = d.pending[:0]
		d.pendingHead = 0
	} else if d.pendingHead >= 64 && d.pendingHead*2 >= len(d.pending) {
		n := copy(d.pending, d.pending[d.pendingHead:])
		d.pending = d.pending[:n]
		d.pendingHead = 0
	}
}

// destagePages moves exactly count cached pages (fewer only if the queue
// empties) to the FTL in contiguous runs and returns the flash time
// consumed. Each run is one FTL write, so mapping updates and the
// GC check amortize over the run; total cost equals the per-page sum
// because the time conversion is linear in the work counts.
func (d *Device) destagePages(count int64) time.Duration {
	var cost time.Duration
	for count > 0 {
		r := d.nextPendingRun()
		if r == nil {
			break
		}
		k := r.n
		if k > count {
			k = count
		}
		w := d.serialWrite(r.lpn, k)
		cost += time.Duration(k)*d.intWritePerPage + d.gcTime(w)
		r.lpn += k
		r.n -= k
		d.cacheFill -= k
		count -= k
		if r.n == 0 {
			d.advancePendingHead()
		}
	}
	return cost
}

// destageTo applies background destaging progress up to virtual time now.
func (d *Device) destageTo(now sim.Duration) {
	for d.cacheFill > 0 && d.drainCursor < now {
		r := d.nextPendingRun()
		if r == nil {
			break
		}
		// Walk the run page by page — each page's cost depends on the GC
		// it triggers and the drain stops mid-run when the cursor reaches
		// now — but commit the queue bookkeeping once per run.
		k := int64(0)
		for k < r.n && d.drainCursor < now {
			w := d.serialWrite(r.lpn+k, 1)
			d.drainCursor += d.intWritePerPage + d.gcTime(w)
			k++
		}
		r.lpn += k
		r.n -= k
		d.cacheFill -= k
		if r.n == 0 {
			d.advancePendingHead()
		}
	}
	if d.drainCursor < now {
		d.drainCursor = now // cache empty: destage engine idles
	}
}

// CacheFillPages reports the number of pages currently buffered in the
// write cache (0 for cacheless devices).
func (d *Device) CacheFillPages() int64 { return d.cacheFill }

// SubmitRead submits a read of n pages starting at lpn at time now and
// returns its completion time.
func (d *Device) SubmitRead(now sim.Duration, lpn int64, n int) sim.Duration {
	if n <= 0 {
		return now
	}
	d.checkRange(lpn, n)
	d.ftl.stats.HostPagesRead += int64(n)
	return d.submit(now, lpn, n, d.cfg.Profile.ReadFixed, d.laneReadPerPage, nil)
}

// Trim discards the mapping for n pages starting at lpn (like a ranged
// blkdiscard / ATA TRIM). It is timeless: real TRIM latency is negligible
// at the granularity the harness uses it.
func (d *Device) Trim(lpn int64, n int) {
	d.checkRange(lpn, n)
	if d.noGC {
		d.ftl.unmarkMappedRange(lpn, int64(n))
		return
	}
	d.dropPendingIn(lpn, n)
	for i := 0; i < n; i++ {
		d.ftl.trim(lpn + int64(i))
	}
}

// dropPendingIn removes cached-but-not-destaged writes that fall in the
// trimmed range so they are not later destaged onto discarded LBAs.
func (d *Device) dropPendingIn(lpn int64, n int) {
	if d.cacheCapPages == 0 || d.cacheFill == 0 {
		return
	}
	end := lpn + int64(n)
	kept := d.pending[:0]
	var fill int64
	for _, r := range d.pending[d.pendingHead:] {
		if r.n == 0 {
			continue
		}
		rEnd := r.lpn + r.n
		if rEnd <= lpn || r.lpn >= end {
			kept = append(kept, r)
			fill += r.n
			continue
		}
		// Overlap: keep the non-overlapping head/tail fragments.
		if r.lpn < lpn {
			kept = append(kept, pendingRange{lpn: r.lpn, n: lpn - r.lpn})
			fill += lpn - r.lpn
		}
		if rEnd > end {
			kept = append(kept, pendingRange{lpn: end, n: rEnd - end})
			fill += rEnd - end
		}
	}
	d.pending = kept
	d.pendingHead = 0
	d.cacheFill = fill
}

// PreconditionRange ages the LBA range [firstPage, firstPage+pages) per
// the paper's §3.4: first write the range sequentially, then issue
// uniformly random single-page writes inside it totalling `multiple`
// times its size (the paper uses 2×) so that garbage collection reaches
// steady state. The whole drive is the range [0, LogicalPages()); the
// harness ages a partition while leaving software-over-provisioned space
// trimmed (Fig 7's "preconditioned partition" configuration).
// Preconditioning is timeless: it models setup work done before the
// experiment clock starts.
//
// The sequential fill uses the FTL's O(blocks) block-sequential fast
// path; the random phase — the part that actually drives GC to steady
// state, and 2× the fill's size at the paper's setting — sends each page
// through ftl.write, the path every host write takes. Every page counts
// as a host write; on NoGC media it is also one flash write.
func (d *Device) PreconditionRange(rng *sim.RNG, firstPage, pages int64, multiple int) {
	d.checkRange(firstPage, int(pages))
	if d.noGC {
		d.ftl.markMappedRange(firstPage, pages)
		d.ftl.stats.HostPagesWritten += pages * int64(multiple+1)
		d.ftl.stats.FlashPagesWritten += pages * int64(multiple+1)
		return
	}
	d.ftl.sequentialFill(firstPage, pages)
	random := pages * int64(multiple)
	var batch [touchBatch]int64
	for done := int64(0); done < random; done += touchBatch {
		lpns := batch[:min(touchBatch, random-done)]
		for i := range lpns {
			lpns[i] = firstPage + int64(rng.Uint64n(uint64(pages)))
		}
		d.ftl.touchPages(lpns)
		for _, lpn := range lpns {
			d.serialWrite(lpn, 1)
		}
	}
	d.ftl.stats.HostPagesWritten += random
}

// MappedPages returns the number of logical pages with live data.
func (d *Device) MappedPages() int64 { return d.ftl.mappedPages }

// BusyTotal exposes cumulative device service time (for utilization
// reporting).
func (d *Device) BusyTotal() sim.Duration { return d.res.BusyTotal() }

// CheckInvariants verifies FTL internal consistency (tests only).
func (d *Device) CheckInvariants() error {
	if d.noGC {
		return nil
	}
	return d.ftl.checkInvariants()
}

// MaxEraseCount returns the largest per-block erase count — a wear
// indicator analogous to a SMART media-wear attribute.
func (d *Device) MaxEraseCount() int {
	max := int32(0)
	for _, e := range d.ftl.eraseCount {
		if e > max {
			max = e
		}
	}
	return int(max)
}

func (d *Device) checkRange(lpn int64, n int) {
	if lpn < 0 || lpn+int64(n) > d.ftl.logicalPages {
		panic("flash: I/O beyond device capacity")
	}
}
