// Package faultdev wraps a blockdev.Dev with deterministic, seed-driven
// storage faults: torn multi-page writes (prefix, suffix or interior
// pages lost), silently dropped writes, a power cut at an arbitrary
// write boundary, read bit-rot on selected LBAs, and the host-stack
// error model of the flash-integration survey (Tehrany et al.) —
// per-op read/write EIO, sticky latent sector errors, short writes,
// misdirected writes and lying fsyncs.
//
// The wrapper owns the content store and threads the block layer's sync
// barrier through it, so "what survived the cut" is well-defined: pages
// covered by the last SyncErr before the cut are durable; everything
// acknowledged after it is at the fault plan's mercy when power returns.
// The inner device still sees every acknowledged write and read, so
// virtual-time costs and iostat counters are unchanged — with a zero
// Plan the wrapper is a transparent content-carrying overlay, which is
// what lets the crash harness run its fault-free calibration pass and
// its faulty pass over identical timing.
//
// Randomness comes from two independent streams seeded by Plan.Seed:
// the legacy stream is consumed only at PowerOn (so a seed and a cut
// point fully determine the surviving disk image), and error verdicts
// draw from a derived second stream guarded by their probabilities —
// a plan with zero error probabilities consumes nothing from it and
// replays bit-identically to pre-error-model plans.
package faultdev

import (
	"fmt"
	"slices"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/deverr"
	"ptsbench/internal/sim"
)

// Restorer is the optional inner-device surface used at PowerOn: a raw
// content write that bypasses counters, timing and the write histogram.
// A real file-backed device (internal/filedev) implements it so the
// backing file can be rewound to exactly the resolved durable image —
// the on-disk analogue of the page cache vanishing with the power.
// Purely simulated devices carry no content and don't need it. A
// failure is reported (not panicked): PowerOn propagates it so the
// harness can surface a broken backing file as a trial error.
type Restorer interface {
	Restore(off int64, n int, data []byte) error
}

// Plan is a deterministic fault plan. The zero value injects nothing.
type Plan struct {
	// Seed drives every random decision the plan makes.
	Seed uint64
	// CutAfterWrites, when positive, cuts power on the Nth host write
	// (1-based): that write and everything after it never reaches the
	// device, and all I/O is ignored until PowerOn. Zero never cuts.
	CutAfterWrites int64
	// CutKeepPages shapes the write the cut landed on: -1 drops it
	// entirely, 0 tears it at a random boundary (prefix, suffix or
	// interior pages lost), k>0 keeps exactly its first k pages.
	CutKeepPages int
	// DropProb is the probability that a write acknowledged after the
	// last sync barrier is silently dropped at power-on. Independent
	// per-op drops subsume reordering: an older surviving write paired
	// with a newer dropped one is exactly a reordered cache flush.
	DropProb float64
	// TornProb is the probability that a surviving unbarriered
	// multi-page write comes back torn (random prefix/suffix/interior
	// pages lost) instead of intact.
	TornProb float64
	// RotPages lists LBAs whose reads return bit-rotted data. The
	// corruption is a stable function of the page — repeated reads see
	// identical corrupt bytes, the way a real flipped cell would.
	RotPages []int64

	// --- Host-stack error model (Tehrany et al.) ---
	// Verdicts below draw from a second RNG derived from Seed, guarded
	// by their probabilities, so a plan that sets none of them replays
	// bit-identically to a pre-error-model plan. PowerOn disarms the
	// whole error model so recovery I/O runs fault-free.

	// ArmAfterWrites, when positive, holds the error model inactive
	// until the Nth acknowledged host write (1-based): verdicts apply
	// after it. Zero arms the model immediately.
	ArmAfterWrites int64
	// ReadEIOProb is the per-op probability that a read fails with a
	// transient EIO (no data transferred, no time charged; a retry
	// redraws the verdict).
	ReadEIOProb float64
	// WriteEIOProb is the per-op probability that a write fails with a
	// transient EIO before reaching the media.
	WriteEIOProb float64
	// ShortProb is the per-op probability that a multi-page write is
	// acknowledged as complete while only a prefix of its pages lands.
	ShortProb float64
	// MisdirectProb is the per-op probability that a write's payload
	// lands one LBA away from its target (the target keeps stale data).
	MisdirectProb float64
	// FsyncLieProb is the per-barrier probability that SyncErr
	// acknowledges without advancing the durability frontier: the
	// pending window stays volatile and the inner device's real fsync
	// is skipped.
	FsyncLieProb float64
	// LatentPages lists LBAs with latent sector errors: reads fail with
	// a sticky, persistent error until a successful write reallocates
	// the sector.
	LatentPages []int64
}

// errSeedSalt derives the error-verdict RNG stream from Plan.Seed.
const errSeedSalt = 0x9E3779B97F4A7C15

// errorModel reports whether any error verdict can ever fire.
func (p *Plan) errorModel() bool {
	return p.ReadEIOProb > 0 || p.WriteEIOProb > 0 || p.ShortProb > 0 ||
		p.MisdirectProb > 0 || p.FsyncLieProb > 0 || len(p.LatentPages) > 0
}

// Injected counts error-model events fired so far, for tests and the
// crash harness's trial reports.
type Injected struct {
	ReadEIO     int64 // transient read EIOs returned
	WriteEIO    int64 // transient write EIOs returned
	LatentReads int64 // reads failed on a latent sector
	Shorts      int64 // writes acked with only a prefix persisted
	Misdirects  int64 // writes landed on a neighboring LBA
	FsyncLies   int64 // barriers acked without durability
}

// Total sums all injected events.
func (i Injected) Total() int64 {
	return i.ReadEIO + i.WriteEIO + i.LatentReads + i.Shorts + i.Misdirects + i.FsyncLies
}

// WriteRecord logs one acknowledged host write (scripted tests use the
// log to locate a specific write, e.g. a metadata-slot update, and aim
// the cut at it).
type WriteRecord struct {
	Off int64
	N   int
}

// pendingOp is one acknowledged-but-unbarriered operation, in order.
type pendingOp struct {
	off      int64
	n        int
	pages    [][]byte // per-page copies; nil for accounting-only writes
	keep     []bool   // short-write survival mask; nil when all pages landed
	discard  bool
	inflight bool // the write the power cut landed on
}

// Outcome summarizes what PowerOn did to the pending window.
type Outcome struct {
	Applied int // ops folded in intact
	Dropped int // ops lost entirely
	Torn    int // ops applied with pages missing
}

// Dev is a fault-injecting blockdev.Dev wrapper. It reports
// ContentEnabled, so engines run their content-mode recovery paths
// against it directly.
type Dev struct {
	inner blockdev.Dev
	plan  Plan
	rng   *sim.RNG // legacy stream: consumed only at PowerOn
	errs  *sim.RNG // error-verdict stream, derived from Seed
	ps    int

	durable map[int64][]byte // survives a power cut
	current map[int64][]byte // acknowledged state, served to reads
	pending []pendingOp      // acknowledged since the last barrier
	rot     map[int64]bool
	latent  map[int64]bool // sticky read-failing LBAs until rewritten

	writes   int64
	cut      bool
	log      []WriteRecord
	injected Injected
}

// Wrap builds a fault-injecting overlay over inner. The inner device
// should not carry its own content store — the wrapper is the content
// authority (an inner store would bypass the fault semantics on reads).
func Wrap(inner blockdev.Dev, plan Plan) *Dev {
	d := &Dev{
		inner:   inner,
		plan:    plan,
		rng:     sim.NewRNG(plan.Seed),
		errs:    sim.NewRNG(plan.Seed ^ errSeedSalt),
		ps:      inner.PageSize(),
		durable: make(map[int64][]byte),
		current: make(map[int64][]byte),
	}
	if len(plan.RotPages) > 0 {
		d.rot = make(map[int64]bool, len(plan.RotPages))
		for _, p := range plan.RotPages {
			d.rot[p] = true
		}
	}
	if len(plan.LatentPages) > 0 {
		d.latent = make(map[int64]bool, len(plan.LatentPages))
		for _, p := range plan.LatentPages {
			d.latent[p] = true
		}
	}
	return d
}

// armed reports whether the error model is active: past the arm point
// (or armed from the start) and some verdict configured.
func (d *Dev) armed() bool {
	return d.plan.errorModel() &&
		(d.plan.ArmAfterWrites <= 0 || d.writes >= d.plan.ArmAfterWrites)
}

// PageSize implements blockdev.Dev.
func (d *Dev) PageSize() int { return d.ps }

// Pages implements blockdev.Dev.
func (d *Dev) Pages() int64 { return d.inner.Pages() }

// ContentEnabled reports that reads return real bytes (the wrapper owns
// the content store regardless of the inner device's mode).
func (d *Dev) ContentEnabled() bool { return true }

// Cut reports whether the power cut has fired. The serving layer polls
// it between pump rounds; ops issued after the cut are ignored, never
// failed, so engine code needs no error plumbing.
func (d *Dev) Cut() bool { return d.cut }

// Writes returns the number of host writes acknowledged so far (the
// unit CutAfterWrites counts in).
func (d *Dev) Writes() int64 { return d.writes }

// WriteLog returns the acknowledged write log, oldest first.
func (d *Dev) WriteLog() []WriteRecord { return d.log }

// Injected returns the error-model event counts fired so far.
func (d *Dev) Injected() Injected { return d.injected }

// DurablePage returns the durable image of one page — nil if nothing
// durable was ever written there, meaning it reads as zeros. The crash
// harness uses it to prove a Restorer-backed inner device's file
// matches the resolved durable image after power-on. The returned slice
// is the live page; callers must not mutate it.
func (d *Dev) DurablePage(lba int64) []byte { return d.durable[lba] }

// checkErr returns the deverr.KindBounds error the inner device would
// for a page run beyond it or a buffer that is not exactly n pages, so a
// bad request fails before it draws a verdict or enters the pending
// window.
func (d *Dev) checkErr(op deverr.Op, off int64, n int, buf []byte) error {
	if off < 0 || off+int64(n) > d.Pages() || (buf != nil && len(buf) != n*d.ps) {
		return &deverr.Error{Op: op, LBA: off, Kind: deverr.KindBounds,
			Cause: fmt.Errorf("faultdev: I/O [%d,+%d) with a %d-byte buffer on a %d-page device", off, n, len(buf), d.Pages())}
	}
	return nil
}

// WriteErr implements blockdev.Dev. The write is acknowledged into the
// current image and forwarded to the inner device for timing and
// accounting, but stays in the pending window — not durable — until
// the next SyncErr. When the error model is armed the op may
// instead fail with a transient EIO (nothing lands, no time charged —
// the retry's attempt pays), land one LBA off target (misdirect), or
// acknowledge with only a prefix of its pages persisted (short write).
// A successful write repairs any latent sector it covers.
func (d *Dev) WriteErr(now sim.Duration, off int64, n int, data []byte) (sim.Duration, error) {
	if n <= 0 || d.cut {
		return now, nil
	}
	if err := d.checkErr(deverr.OpWrite, off, n, data); err != nil {
		return now, err
	}
	target := off
	var keep []bool
	if d.armed() {
		if d.plan.WriteEIOProb > 0 && d.errs.Float64() < d.plan.WriteEIOProb {
			d.injected.WriteEIO++
			return now, &deverr.Error{Op: deverr.OpWrite, LBA: off, Kind: deverr.KindEIO, Transient: true}
		}
		if d.plan.MisdirectProb > 0 && d.errs.Float64() < d.plan.MisdirectProb {
			if t := d.misdirectTarget(off, n); t != off {
				d.injected.Misdirects++
				target = t
			}
		}
		if n > 1 && d.plan.ShortProb > 0 && d.errs.Float64() < d.plan.ShortProb {
			k := 1 + d.errs.Intn(n-1)
			keep = make([]bool, n)
			for i := 0; i < k; i++ {
				keep[i] = true
			}
			d.injected.Shorts++
		}
	}
	d.writes++
	d.log = append(d.log, WriteRecord{Off: target, N: n})
	op := pendingOp{off: target, n: n, keep: keep}
	if data != nil {
		op.pages = make([][]byte, n)
		for i := 0; i < n; i++ {
			page := make([]byte, d.ps)
			copy(page, data[i*d.ps:(i+1)*d.ps])
			op.pages[i] = page
			if keep == nil || keep[i] {
				d.current[target+int64(i)] = page
			}
		}
	}
	if d.latent != nil {
		for i := 0; i < n; i++ {
			if keep == nil || keep[i] {
				delete(d.latent, target+int64(i))
			}
		}
	}
	if d.plan.CutAfterWrites > 0 && d.writes == d.plan.CutAfterWrites {
		// Power dies mid-write: the op never reaches the device, and the
		// acknowledgment never happens either — but the harness's model
		// already treats every op after the previous pump as ambiguous,
		// so marking it inflight (for CutKeepPages shaping at PowerOn)
		// is all that's needed.
		op.inflight = true
		d.pending = append(d.pending, op)
		d.cut = true
		return now, nil
	}
	d.pending = append(d.pending, op)
	// Forward the real bytes: a content-less simulated inner ignores
	// them, a file-backed inner persists them — which is what makes the
	// Restore rewind at PowerOn meaningful.
	return d.inner.WriteErr(now, target, n, data)
}

// misdirectTarget shifts an op one LBA, staying in bounds; returns off
// unchanged when no neighboring placement fits.
func (d *Dev) misdirectTarget(off int64, n int) int64 {
	if off+int64(n)+1 <= d.Pages() {
		return off + 1
	}
	if off > 0 {
		return off - 1
	}
	return off
}

// ReadErr implements blockdev.Dev: it serves the acknowledged image
// (zeros for never-written pages), applies bit-rot to planned LBAs, and
// forwards to the inner device for timing and accounting. Reads
// touching a latent sector fail with a sticky persistent error until
// the sector is rewritten; an armed ReadEIOProb fails the op with a
// transient EIO a retry may clear.
func (d *Dev) ReadErr(now sim.Duration, off int64, n int, buf []byte) (sim.Duration, error) {
	if n <= 0 || d.cut {
		return now, nil
	}
	if err := d.checkErr(deverr.OpRead, off, n, buf); err != nil {
		return now, err
	}
	if d.latent != nil {
		for i := 0; i < n; i++ {
			if d.latent[off+int64(i)] {
				d.injected.LatentReads++
				return now, &deverr.Error{Op: deverr.OpRead, LBA: off + int64(i), Kind: deverr.KindLatent}
			}
		}
	}
	if d.armed() && d.plan.ReadEIOProb > 0 && d.errs.Float64() < d.plan.ReadEIOProb {
		d.injected.ReadEIO++
		return now, &deverr.Error{Op: deverr.OpRead, LBA: off, Kind: deverr.KindEIO, Transient: true}
	}
	if buf != nil {
		for i := 0; i < n; i++ {
			lba := off + int64(i)
			dst := buf[i*d.ps : (i+1)*d.ps]
			if page := d.current[lba]; page != nil {
				copy(dst, page)
			} else {
				clear(dst)
			}
			if d.rot[lba] {
				rotPage(dst)
			}
		}
	}
	return d.inner.ReadErr(now, off, n, nil)
}

// rotPage applies the stable bit-rot pattern: a fixed XOR over a sparse
// byte stride, enough to break any CRC while staying deterministic
// across repeated reads.
func rotPage(dst []byte) {
	for j := 0; j < len(dst); j += 61 {
		dst[j] ^= 0xA5
	}
}

// Discard implements blockdev.Dev. Like a write, a TRIM is only durable
// once a barrier covers it.
func (d *Dev) Discard(off int64, n int) {
	if n <= 0 || d.cut {
		return
	}
	for i := 0; i < n; i++ {
		delete(d.current, off+int64(i))
	}
	d.pending = append(d.pending, pendingOp{off: off, n: n, discard: true})
	d.inner.Discard(off, n)
}

// SyncErr implements blockdev.Dev: everything acknowledged so far
// survives a power cut. Barriers cost no virtual time and no I/O —
// they only advance the durability frontier — but they do forward to
// the inner device's barrier, so a file-backed inner issues its real
// fsync exactly where the simulated stack draws the durability line.
// An armed FsyncLieProb verdict acknowledges the barrier without
// folding anything durable and skips the inner fsync — the lying-disk
// failure mode: the caller proceeds believing its commit point held.
func (d *Dev) SyncErr() error {
	if d.cut {
		return nil
	}
	if d.armed() && d.plan.FsyncLieProb > 0 && d.errs.Float64() < d.plan.FsyncLieProb {
		d.injected.FsyncLies++
		return nil
	}
	for _, op := range d.pending {
		d.foldDurable(op, nil)
	}
	d.pending = d.pending[:0]
	return d.inner.SyncErr()
}

// PowerCut forces the cut immediately (the harness cuts the remaining
// shards of a store when one shard's plan fires, so the whole machine
// loses power at once).
func (d *Dev) PowerCut() { d.cut = true }

// PowerOn resolves the pending window against the fault plan and brings
// the device back: each unbarriered op survives intact, comes back
// torn, or vanishes, per the plan's seeded RNG; the acknowledged image
// is reset to what proved durable; the cut and the error model are
// disarmed so recovery I/O runs fault-free. The returned error is a
// Restorer failure rewinding a real backing file (never set for purely
// simulated inners).
func (d *Dev) PowerOn() (Outcome, error) {
	var out Outcome
	affected := make(map[int64]struct{})
	for _, op := range d.pending {
		for i := 0; i < op.n; i++ {
			affected[op.off+int64(i)] = struct{}{}
		}
		keep := d.resolveKeep(op)
		switch {
		case keep == nil:
			out.Applied++
			d.foldDurable(op, nil)
		case len(keep) == 0:
			out.Dropped++
		default:
			out.Torn++
			d.foldDurable(op, keep)
		}
	}
	d.pending = d.pending[:0]
	d.current = make(map[int64][]byte, len(d.durable))
	for lba, page := range d.durable {
		// Sharing page slices is safe: writes always store fresh copies.
		d.current[lba] = page
	}
	err := d.restoreInner(affected)
	d.cut = false
	d.plan.CutAfterWrites = 0 // a plan cuts at most once
	// Disarm the error model: recovery must observe the damage already
	// done, not suffer fresh verdicts while reading it back.
	d.plan.ReadEIOProb, d.plan.WriteEIOProb = 0, 0
	d.plan.ShortProb, d.plan.MisdirectProb, d.plan.FsyncLieProb = 0, 0, 0
	d.latent = nil
	return out, err
}

// restoreInner rewinds a Restorer-capable inner device so every page
// touched by the pending window matches the resolved durable image —
// dropped and torn pages revert to their last barriered content (zeros
// if never durably written). Pages outside the window already match:
// their writes were forwarded verbatim and folded intact.
func (d *Dev) restoreInner(affected map[int64]struct{}) error {
	r, ok := d.inner.(Restorer)
	if !ok || len(affected) == 0 {
		return nil
	}
	lbas := make([]int64, 0, len(affected))
	for lba := range affected {
		lbas = append(lbas, lba)
	}
	slices.Sort(lbas)
	for _, lba := range lbas {
		if err := r.Restore(lba, 1, d.durable[lba]); err != nil { // nil page zeroes the range
			return err
		}
	}
	return nil
}

// resolveKeep decides an op's fate at power-on: nil means intact, an
// empty mask means dropped, otherwise keep[i] reports whether page i
// survived.
func (d *Dev) resolveKeep(op pendingOp) []bool {
	if op.inflight {
		switch {
		case d.plan.CutKeepPages < 0:
			return []bool{}
		case d.plan.CutKeepPages > 0:
			k := d.plan.CutKeepPages
			if k >= op.n {
				return nil
			}
			keep := make([]bool, op.n)
			for i := 0; i < k; i++ {
				keep[i] = true
			}
			return keep
		default:
			return d.tearMask(op.n)
		}
	}
	if d.plan.DropProb > 0 && d.rng.Float64() < d.plan.DropProb {
		return []bool{}
	}
	if op.n > 1 && d.plan.TornProb > 0 && d.rng.Float64() < d.plan.TornProb {
		return d.tearMask(op.n)
	}
	return nil
}

// tearMask builds a random torn-write survival mask: one of prefix
// lost, suffix lost, or a single interior page lost. A 1-page write
// tears to nothing (its only page is lost).
func (d *Dev) tearMask(n int) []bool {
	keep := make([]bool, n)
	if n == 1 {
		return keep
	}
	switch d.rng.Intn(3) {
	case 0: // prefix lost: pages [0,k) gone
		k := 1 + d.rng.Intn(n-1)
		for i := k; i < n; i++ {
			keep[i] = true
		}
	case 1: // suffix lost: pages [k,n) gone
		k := 1 + d.rng.Intn(n-1)
		for i := 0; i < k; i++ {
			keep[i] = true
		}
	default: // one interior page gone
		hole := d.rng.Intn(n)
		for i := range keep {
			keep[i] = i != hole
		}
	}
	return keep
}

// foldDurable applies an op (optionally masked by keep, intersected
// with the op's own short-write mask) to the durable image.
// Accounting-only writes (no pages) change no content.
func (d *Dev) foldDurable(op pendingOp, keep []bool) {
	kept := func(i int) bool {
		return (keep == nil || keep[i]) && (op.keep == nil || op.keep[i])
	}
	if op.discard {
		for i := 0; i < op.n; i++ {
			if kept(i) {
				delete(d.durable, op.off+int64(i))
			}
		}
		return
	}
	if op.pages == nil {
		return
	}
	for i := 0; i < op.n; i++ {
		if kept(i) {
			d.durable[op.off+int64(i)] = op.pages[i]
		}
	}
}
