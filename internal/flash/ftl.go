package flash

// This file implements the flash translation layer: a page-level mapping
// with log-structured writes and greedy garbage collection. The FTL layer
// is pure logic — it counts work (programs, relocations, erases) and the
// Device layer converts work into virtual time.

import (
	"fmt"

	"ptsbench/internal/sim"
)

const (
	unmapped = int32(-1)
)

type blockState uint8

const (
	blockFree blockState = iota
	blockOpen
	blockClosed
)

// gcWork summarizes the internal work caused by one FTL operation, so the
// device can convert it to service time.
type gcWork struct {
	relocated int // valid pages moved during GC
	erases    int // blocks erased
}

func (w *gcWork) add(o gcWork) {
	w.relocated += o.relocated
	w.erases += o.erases
}

type ftl struct {
	pageSize      int
	pagesPerBlock int
	numBlocks     int
	logicalPages  int64

	l2p        []int32 // logical page -> physical page, or unmapped
	p2l        []int32 // physical page -> logical page, or unmapped
	validCount []int32 // valid pages per block
	writePtr   []int32 // next program offset per block
	state      []blockState
	eraseCount []int32 // wear per block

	freeBlocks []int32
	// hostOpen are the concurrently open host-write blocks (die
	// striping); each page write lands on a pseudo-random stream.
	hostOpen []int32
	gcOpen   int32 // block receiving GC relocations, -1 if none
	rng      *sim.RNG

	// Greedy victim selection: buckets[v] holds closed blocks with
	// exactly v valid pages; bucketPos[b] is b's index in its bucket
	// (-1 when b is not bucketed). minBucket is a lazy lower bound on
	// the first non-empty bucket.
	buckets   [][]int32
	bucketPos []int32
	minBucket int

	mappedPages int64 // logical pages with a valid mapping

	stats Stats

	// sink receives the sum of touchPages' loads, so the compiler keeps
	// them. Nothing reads it.
	sink int32
}

// touchBatch is how many pages' mapping entries touchPages loads ahead
// of the loop that uses them: enough independent cache misses to keep a
// core's memory pipeline busy, few enough that the lines are still
// cached when the loop reaches them.
const touchBatch = 32

// Stats are the device's SMART-style cumulative counters. All counts are
// in pages except Erases (blocks).
type Stats struct {
	HostPagesWritten  int64
	HostPagesRead     int64
	FlashPagesWritten int64 // host-destined programs + GC relocations
	Relocations       int64 // GC-moved valid pages
	Erases            int64
	TrimmedPages      int64
}

// WAD returns the cumulative device-level write amplification: flash
// pages programmed per host page written. It returns 1 when no host
// writes have occurred.
func (s Stats) WAD() float64 {
	if s.HostPagesWritten == 0 {
		return 1
	}
	return float64(s.FlashPagesWritten) / float64(s.HostPagesWritten)
}

// Sub returns s - o, for computing per-interval deltas.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		HostPagesWritten:  s.HostPagesWritten - o.HostPagesWritten,
		HostPagesRead:     s.HostPagesRead - o.HostPagesRead,
		FlashPagesWritten: s.FlashPagesWritten - o.FlashPagesWritten,
		Relocations:       s.Relocations - o.Relocations,
		Erases:            s.Erases - o.Erases,
		TrimmedPages:      s.TrimmedPages - o.TrimmedPages,
	}
}

// Add returns s + o, for aggregating per-shard devices.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		HostPagesWritten:  s.HostPagesWritten + o.HostPagesWritten,
		HostPagesRead:     s.HostPagesRead + o.HostPagesRead,
		FlashPagesWritten: s.FlashPagesWritten + o.FlashPagesWritten,
		Relocations:       s.Relocations + o.Relocations,
		Erases:            s.Erases + o.Erases,
		TrimmedPages:      s.TrimmedPages + o.TrimmedPages,
	}
}

func newFTL(cfg Config) *ftl {
	nb := cfg.physicalBlocks()
	ppb := cfg.PagesPerBlock
	f := &ftl{
		pageSize:      cfg.PageSize,
		pagesPerBlock: ppb,
		numBlocks:     nb,
		logicalPages:  cfg.logicalPages(),
		l2p:           make([]int32, cfg.logicalPages()),
		p2l:           make([]int32, nb*ppb),
		validCount:    make([]int32, nb),
		writePtr:      make([]int32, nb),
		state:         make([]blockState, nb),
		eraseCount:    make([]int32, nb),
		buckets:       make([][]int32, ppb+1),
		bucketPos:     make([]int32, nb),
		hostOpen:      make([]int32, cfg.Streams),
		gcOpen:        -1,
		rng:           sim.NewRNG(0xF7A5DE71CE),
	}
	for i := range f.hostOpen {
		f.hostOpen[i] = -1
	}
	for i := range f.l2p {
		f.l2p[i] = unmapped
	}
	for i := range f.p2l {
		f.p2l[i] = unmapped
	}
	for i := range f.bucketPos {
		f.bucketPos[i] = -1
	}
	f.freeBlocks = make([]int32, 0, nb)
	for b := nb - 1; b >= 0; b-- {
		f.freeBlocks = append(f.freeBlocks, int32(b))
	}
	f.minBucket = ppb + 1
	return f
}

// bucketInsert places closed block b into the bucket for its valid count.
func (f *ftl) bucketInsert(b int32) {
	v := f.validCount[b]
	f.bucketPos[b] = int32(len(f.buckets[v]))
	f.buckets[v] = append(f.buckets[v], b)
	if int(v) < f.minBucket {
		f.minBucket = int(v)
	}
}

// bucketRemove removes block b from its current bucket.
func (f *ftl) bucketRemove(b int32) {
	v := f.validCount[b]
	pos := f.bucketPos[b]
	bucket := f.buckets[v]
	last := bucket[len(bucket)-1]
	bucket[pos] = last
	f.bucketPos[last] = pos
	f.buckets[v] = bucket[:len(bucket)-1]
	f.bucketPos[b] = -1
}

// invalidate marks physical page ppn stale and updates bucket placement.
// ppn must be mapped: every caller (writeOne, sequentialFill, trim)
// passes l2p[lpn] of a mapped lpn, the L2P/P2L bijection that
// checkInvariants and FuzzFTL enforce.
func (f *ftl) invalidate(ppn int32) {
	b := ppn / int32(f.pagesPerBlock)
	f.p2l[ppn] = unmapped
	if f.state[b] == blockClosed {
		f.bucketRemove(b)
		f.validCount[b]--
		f.bucketInsert(b)
	} else {
		f.validCount[b]--
	}
}

// popFreeBlock takes a block from the free pool and opens it.
func (f *ftl) popFreeBlock() int32 {
	if len(f.freeBlocks) == 0 {
		panic("flash: free block pool exhausted (GC invariant broken)")
	}
	b := f.freeBlocks[len(f.freeBlocks)-1]
	f.freeBlocks = f.freeBlocks[:len(f.freeBlocks)-1]
	f.state[b] = blockOpen
	f.writePtr[b] = 0
	return b
}

// closeBlock transitions a full open block into the GC candidate set.
func (f *ftl) closeBlock(b int32) {
	f.state[b] = blockClosed
	f.bucketInsert(b)
}

// frontierBlock returns the block the frontier (host or GC) programs
// next. A full frontier is closed and, like a missing one, replaced from
// the free pool. The frontier's writePtr and validCount must be current.
func (f *ftl) frontierBlock(frontier *int32) int32 {
	if *frontier < 0 || f.writePtr[*frontier] >= int32(f.pagesPerBlock) {
		f.replaceFrontier(frontier)
	}
	return *frontier
}

// replaceFrontier closes the frontier's block, if it has one, and opens
// a block from the free pool in its place. It is frontierBlock's slow
// path, kept apart so that the check inlines into every program call.
func (f *ftl) replaceFrontier(frontier *int32) {
	if *frontier >= 0 {
		f.closeBlock(*frontier)
	}
	*frontier = f.popFreeBlock()
}

// program writes one page into the given frontier (host or GC) and maps
// lpn to it.
func (f *ftl) program(frontier *int32, lpn int64) {
	b := f.frontierBlock(frontier)
	ppn := b*int32(f.pagesPerBlock) + f.writePtr[b]
	f.writePtr[b]++
	f.p2l[ppn] = int32(lpn)
	f.validCount[b]++
	f.l2p[lpn] = ppn
}

// touchPages loads l2p[lpn] for every page in lpns, then p2l of each one
// that is mapped: what writeOne reads for those pages, before it reads
// them. The loads do not depend on each other, so the CPU overlaps their
// cache misses; writeOne's loop, where each page's loads wait on the
// previous page's updates, then hits cache. The pass reads only and
// changes no state and no counter: only the host's time moves.
func (f *ftl) touchPages(lpns []int64) {
	var sum int32
	for _, lpn := range lpns {
		sum += f.l2p[lpn]
	}
	for _, lpn := range lpns {
		if old := f.l2p[lpn]; old != unmapped {
			sum += f.p2l[old]
		}
	}
	f.sink += sum
}

// writeOne performs the mapping update and flash program for one
// host-destined page write: invalidate the old version (if any), program
// the new one at a pseudo-randomly chosen stream frontier (modelling die
// striping). It is the page-write primitive behind write.
func (f *ftl) writeOne(lpn int64) {
	if old := f.l2p[lpn]; old != unmapped {
		f.invalidate(old)
	} else {
		f.mappedPages++
	}
	f.program(&f.hostOpen[f.rng.Intn(len(f.hostOpen))], lpn)
	f.stats.FlashPagesWritten++
}

// write programs the n host pages starting at lpn in ascending order —
// the FTL's one host-write path. The GC trigger is evaluated after every
// page (a single comparison while the free pool is healthy), and the GC
// work page lpn+i causes accumulates into perLane[(lpn+i) mod
// len(perLane)]: the lane (die) that page stripes to on a multi-lane
// device, where the device converts each lane's work to service time
// with a linear function, so the aggregation is exact. A one-element
// perLane collects all the work. Host pages are counted by the caller,
// where the request is admitted; the range is in bounds by then.
func (f *ftl) write(lpn, n int64, perLane []gcWork) {
	lanes := int64(len(perLane))
	for i := int64(0); i < n; i++ {
		f.writeOne(lpn + i)
		if len(f.freeBlocks) < gcLowWater {
			perLane[(lpn+i)%lanes].add(f.maybeGC())
		}
	}
}

// markMappedRange records presence for [lpn, lpn+n) without any flash
// machinery — the NoGC (in-place update) write path, where only the
// mapped-pages utilization bookkeeping applies.
func (f *ftl) markMappedRange(lpn, n int64) {
	for p := lpn; p < lpn+n; p++ {
		if f.l2p[p] == unmapped {
			f.l2p[p] = 0 // presence marker
			f.mappedPages++
		}
	}
}

// unmarkMappedRange drops presence for [lpn, lpn+n) (NoGC trim).
func (f *ftl) unmarkMappedRange(lpn, n int64) {
	for p := lpn; p < lpn+n; p++ {
		if f.l2p[p] != unmapped {
			f.l2p[p] = unmapped
			f.mappedPages--
		}
	}
}

// sequentialFill lays pages [first, first+n) into freshly opened blocks
// in LBA order — the O(blocks) fast path behind PreconditionRange's
// sequential-fill phase. Each block is claimed from the free pool, filled
// with consecutive logical pages in one pass (block-sequential placement
// rather than per-page pseudo-random striping: for preconditioning the
// two are equivalent, because the subsequent random-overwrite phase is
// what sets the steady-state invalidation pattern), closed, and the GC
// trigger evaluated once per block — the only points at which the free
// pool changes.
func (f *ftl) sequentialFill(first, n int64) {
	ppb := int64(f.pagesPerBlock)
	lpn := first
	end := first + n
	for lpn < end {
		b := f.popFreeBlock()
		base := int64(b) * ppb
		count := ppb
		if end-lpn < count {
			count = end - lpn
		}
		for i := int64(0); i < count; i++ {
			p := lpn + i
			if old := f.l2p[p]; old != unmapped {
				f.invalidate(old)
			} else {
				f.mappedPages++
			}
			f.p2l[base+i] = int32(p)
			f.l2p[p] = int32(base + i)
		}
		f.writePtr[b] = int32(count)
		f.validCount[b] = int32(count)
		f.closeBlock(b)
		f.maybeGC()
		lpn += count
	}
	f.stats.FlashPagesWritten += n
	f.stats.HostPagesWritten += n
}

// pickVictim returns the closed block with the fewest valid pages (the
// greedy policy), or -1 if no closed block exists.
func (f *ftl) pickVictim() int32 {
	for f.minBucket <= f.pagesPerBlock {
		bucket := f.buckets[f.minBucket]
		if len(bucket) > 0 {
			return bucket[len(bucket)-1]
		}
		f.minBucket++
	}
	return -1
}

// maybeGC runs greedy garbage collection when the free pool is low,
// reclaiming blocks until the high watermark is restored.
func (f *ftl) maybeGC() gcWork {
	var work gcWork
	if len(f.freeBlocks) >= gcLowWater {
		return work
	}
	for len(f.freeBlocks) < gcHighWater {
		v := f.pickVictim()
		if v < 0 {
			// No closed block to collect: force-close a host frontier
			// so its invalidated pages become reclaimable. If even that
			// is impossible the device is genuinely wedged, which the
			// capacity validation is supposed to prevent.
			closed := false
			for i, b := range f.hostOpen {
				if b >= 0 && f.writePtr[b] > 0 {
					f.closeBlock(b)
					f.hostOpen[i] = -1
					closed = true
					break
				}
			}
			if closed {
				continue
			}
			break
		}
		if f.validCount[v] >= int32(f.pagesPerBlock) && len(f.freeBlocks) > 0 {
			// Collecting a fully valid block makes no net progress;
			// stop rather than churn (utilization is at the physical
			// limit).
			break
		}
		f.bucketRemove(v)
		f.state[v] = blockOpen // transitional: not a candidate while moving
		work.relocated += f.relocate(v)
		f.eraseBlock(v)
		work.erases++
	}
	return work
}

// relocate moves victim v's valid pages, in page order, to the GC
// frontier in one pass over v's p2l entries, and returns how many it
// moved. It leaves the FTL as a program call per page would: the
// frontier's write pointer and the pages added to it are kept in locals
// and written back when the frontier fills (before frontierBlock closes
// it and opens the next) and at the end, and each counter takes one add.
func (f *ftl) relocate(v int32) int {
	ppb := int32(f.pagesPerBlock)
	base := v * ppb
	src := f.p2l[base : base+ppb]
	dst, ptr, added := f.gcOpen, ppb, int32(0)
	if dst >= 0 {
		ptr = f.writePtr[dst]
	}
	moved := 0
	for i, lpn := range src {
		if lpn == unmapped {
			continue
		}
		if ptr == ppb {
			if dst >= 0 {
				f.writePtr[dst] = ptr
				f.validCount[dst] += added
			}
			dst = f.frontierBlock(&f.gcOpen)
			ptr, added = 0, 0
		}
		ppn := dst*ppb + ptr
		f.p2l[ppn] = lpn
		f.l2p[lpn] = ppn
		src[i] = unmapped
		ptr++
		added++
		moved++
	}
	if dst >= 0 {
		f.writePtr[dst] = ptr
		f.validCount[dst] += added
	}
	f.validCount[v] -= int32(moved)
	f.stats.FlashPagesWritten += int64(moved)
	f.stats.Relocations += int64(moved)
	return moved
}

// eraseBlock resets block b and returns it to the free pool.
func (f *ftl) eraseBlock(b int32) {
	f.state[b] = blockFree
	f.writePtr[b] = 0
	f.validCount[b] = 0
	f.eraseCount[b]++
	f.stats.Erases++
	f.freeBlocks = append(f.freeBlocks, b)
}

// trim invalidates the mapping for lpn, if any.
func (f *ftl) trim(lpn int64) {
	if old := f.l2p[lpn]; old != unmapped {
		f.invalidate(old)
		f.l2p[lpn] = unmapped
		f.mappedPages--
		f.stats.TrimmedPages++
	}
}

// checkInvariants verifies internal consistency; tests call it after
// randomized operation sequences.
func (f *ftl) checkInvariants() error {
	var valid int64
	for b := 0; b < f.numBlocks; b++ {
		var count int32
		base := b * f.pagesPerBlock
		for i := 0; i < f.pagesPerBlock; i++ {
			if int32(i) >= f.writePtr[b] && f.state[b] != blockFree {
				if f.p2l[base+i] != unmapped {
					return errorf("block %d page %d mapped beyond write pointer", b, i)
				}
				continue
			}
			if lpn := f.p2l[base+i]; lpn != unmapped {
				count++
				if f.l2p[lpn] != int32(base+i) {
					return errorf("p2l/l2p mismatch at block %d page %d", b, i)
				}
			}
		}
		if count != f.validCount[b] {
			return errorf("block %d valid count %d, recount %d", b, f.validCount[b], count)
		}
		valid += int64(count)
	}
	if valid != f.mappedPages {
		return errorf("mappedPages %d, recount %d", f.mappedPages, valid)
	}
	return nil
}

func errorf(format string, args ...any) error {
	return fmt.Errorf("flash: "+format, args...)
}
