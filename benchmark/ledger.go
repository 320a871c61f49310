package main

import (
	"fmt"
	"time"

	"ptsbench/internal/betree"
	"ptsbench/internal/blockdev"
	"ptsbench/internal/btree"
	"ptsbench/internal/core"
	"ptsbench/internal/flash"
	"ptsbench/internal/lsm"
)

// metric is one reported number. Names and units are the contract with
// BENCHMARK.json and every later perf issue: do not rename.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// treeIO sums the engines' own activity counters over a cell's stacks.
type treeIO struct {
	flushes, compactions, compactionWriteB, stallEvents      int64 // lsm
	hits, misses, evictionWrites, checkpoints, checkpointPgs int64 // btree, betree
	bufferFlushes, flushedMsgs, bufferHits                   int64 // betree
}

func (a treeIO) sub(b treeIO) treeIO {
	return treeIO{
		a.flushes - b.flushes, a.compactions - b.compactions, a.compactionWriteB - b.compactionWriteB, a.stallEvents - b.stallEvents,
		a.hits - b.hits, a.misses - b.misses, a.evictionWrites - b.evictionWrites, a.checkpoints - b.checkpoints, a.checkpointPgs - b.checkpointPgs,
		a.bufferFlushes - b.bufferFlushes, a.flushedMsgs - b.flushedMsgs, a.bufferHits - b.bufferHits,
	}
}

func snapIO(stacks []*stack) treeIO {
	var t treeIO
	for _, s := range stacks {
		switch e := s.eng.(type) {
		case *lsm.DB:
			io := e.IO()
			t.flushes += io.Flushes
			t.compactions += io.Compactions
			t.compactionWriteB += io.CompactionWriteB
			t.stallEvents += io.StallEvents
		case *btree.Tree:
			io := e.IO()
			t.hits += io.CacheHits
			t.misses += io.CacheMisses
			t.evictionWrites += io.EvictionWrites
			t.checkpoints += io.Checkpoints
			t.checkpointPgs += io.CheckpointPgs
		case *betree.Tree:
			io := e.IO()
			t.hits += io.CacheHits
			t.misses += io.CacheMisses
			t.evictionWrites += io.EvictionWrites
			t.checkpoints += io.Checkpoints
			t.checkpointPgs += io.CheckpointPgs
			t.bufferFlushes += io.BufferFlushes
			t.flushedMsgs += io.FlushedMessages
			t.bufferHits += io.BufferHits
		}
	}
	return t
}

// ratio is a/b, and 0 when the layer did nothing (the metric does not
// apply to the cell).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayCost is what it took the bare device layers to redo a cell's
// measured-phase device calls.
type replayCost struct {
	flashNs, blockdevNs int64
	mismatch            error
}

// replay rebuilds every device of the cell — same config, same aging
// stream, same set-up call log — and times the measured phase's logged
// calls against a bare flash.Device, then against a blockdev.Device over
// another one. The replayed flash.Stats must equal the original's
// exactly: that is what makes the replayed time the run's flash time.
func replay(r *rig, o *outcome) replayCost {
	var cost replayCost
	i := 0
	for _, sh := range r.tr.shards {
		for _, d := range sh.devs {
			s := r.stacks[i]
			for pass := 0; pass < 2; pass++ {
				ssd, err := flash.NewDevice(s.flashCfg)
				if err != nil {
					cost.mismatch = err
					return cost
				}
				if s.aging != nil {
					aging := *s.aging
					ssd.PreconditionRange(&aging, 0, ssd.LogicalPages(), 2)
				}
				setUp, measured := d.log.slices(0, d.measFrom), d.log.slices(d.measFrom, d.measTo)
				if pass == 0 {
					replayFlash(ssd, setUp)
					t0 := time.Now()
					replayFlash(ssd, measured)
					cost.flashNs += int64(time.Since(t0))
				} else {
					bd := blockdev.New(ssd)
					replayDev(bd, setUp)
					t0 := time.Now()
					replayDev(bd, measured)
					cost.blockdevNs += int64(time.Since(t0))
				}
				if got := ssd.Stats(); got != o.flash[i] && cost.mismatch == nil {
					cost.mismatch = fmt.Errorf("flash replay of shard %d replica %d: stats %+v, the run's were %+v", s.shard, s.replica, got, o.flash[i])
				}
			}
			i++
		}
	}
	return cost
}

func replayFlash(ssd *flash.Device, log [][]devCall) {
	for _, part := range log {
		for _, c := range part {
			switch c.kind() {
			case devWrite:
				ssd.SubmitWrite(c.now, int64(c.off), c.n())
			case devRead:
				ssd.SubmitRead(c.now, int64(c.off), c.n())
			case devDiscard:
				ssd.Trim(int64(c.off), c.n())
			}
		}
	}
}

func replayDev(bd *blockdev.Device, log [][]devCall) {
	for _, part := range log {
		for _, c := range part {
			switch c.kind() {
			case devWrite:
				bd.WriteAt(c.now, int64(c.off), c.n(), nil)
			case devRead:
				bd.ReadAt(c.now, int64(c.off), c.n(), nil)
			case devDiscard:
				bd.Discard(int64(c.off), c.n())
			}
		}
	}
}

// endToEnd derives the end-to-end metrics from an untraced outcome.
func endToEnd(r *rig, o *outcome, setupS, peakRSSMiB float64) map[string]metric {
	ops := float64(o.ops)
	steady := o.series.TailStats(0.25)
	scale := float64(r.spec.Scale)
	return map[string]metric{
		"host_ns_per_op":       {float64(o.wall) / ops, "ns"},
		"allocs_per_op":        {float64(o.mallocs) / ops, "count"},
		"alloc_bytes_per_op":   {float64(o.allocBytes) / ops, "B"},
		"peak_rss_mb":          {peakRSSMiB, "MiB"},
		"setup_s":              {setupS, "s"},
		"sim_kops":             {steady.ThroughputKOps * scale, "virt_KOps/s"},
		"sim_lat_mean_us":      {o.fine.mean() / 1e3, "virt_us"},
		"sim_lat_worst1pct_us": {o.fine.tailMean(0.99) / 1e3, "virt_us"},
		"wa_e2e":               {steady.EndToEndWA, "B/B"},
		"space_amp":            {core.SpaceAmplification(steady.DiskUsedBytes, r.datasetBytes), "B/B"},
	}
}

// perLayer derives the layer ledger from a traced outcome t, the
// untraced outcome u of the same cell, and the flash replay. Everything
// is per user op, so layers subtract.
func perLayer(r *rig, t, u *outcome, cost replayCost) map[string]metric {
	tr := r.tr
	ops := float64(t.ops)
	var top, leaf, put, get callAgg
	var write, read, discard callAgg
	// topVirt is the virtual service time of the top-level Put/Get calls
	// alone: what an op would take with no queueing and no commit lift.
	var syncs, topVirt int64
	var putHist fineHist
	for _, sh := range tr.shards {
		for _, e := range sh.engs {
			var all callAgg
			all.add(e.put)
			all.add(e.get)
			all.add(e.other)
			if e.top {
				top.add(all)
				topVirt += e.put.virtNs + e.get.virtNs
			}
			if e.leaf {
				leaf.add(all)
				put.add(e.put)
				get.add(e.get)
				for i, c := range e.putHist.counts {
					putHist.counts[i] += c
				}
				putHist.n += e.putHist.n
			}
		}
		for _, d := range sh.devs {
			write.add(d.write)
			read.add(d.read)
			discard.add(d.discard)
			syncs += d.syncs
		}
	}
	devNs := float64(write.hostNs + read.hostNs + discard.hostNs)
	storeWall := float64(tr.submitNs + tr.pumpNs)

	last := t.last()
	// The final sample holds the measured-phase deltas of the WA-D terms.
	hostPages, flashPages := float64(last.HostPages), float64(last.FlashPages)
	lanes := float64(r.spec.Device.Profile.ParallelLanes() * len(r.stacks))
	es := r.st.ErrorStats()
	io := t.io
	pageSize := float64(r.spec.Device.PageSize)
	scale := float64(r.spec.Scale) // virtual times are reported at paper scale

	return map[string]metric{
		"runtime.cpu_ns_per_op": {float64(u.cpu) / float64(u.ops), "ns"},
		"runtime.gc_cpu_share":  {u.gcShare, "share"},

		"driver.self_ns_per_op": {(float64(t.wall) - storeWall) / ops, "ns"},

		"store.wall_ns_per_op":  {storeWall / ops, "ns"},
		"store.self_ns_per_op":  {(float64(tr.submitNs) + float64(tr.pumpNs-tr.slowestNs)) / ops, "ns"},
		"store.ops_per_pump":    {ratio(ops, float64(t.pumps)), "count"},
		"store.virt_wait_share": {1 - ratio(float64(topVirt), float64(t.virtLat)), "share"},
		"store.sim_lat_p99_us":  {t.fine.quantile(0.99) / 1e3, "virt_us"},
		"store.sim_lat_p999_us": {t.fine.quantile(0.999) / 1e3, "virt_us"},
		"store.degraded_events": {float64(es.Transient + es.Persistent + es.Retries + es.Failovers + es.Unavailable), "count"},

		"replica.self_ns_per_op":      {float64(top.hostNs-leaf.hostNs) / ops, "ns"},
		"replica.member_calls_per_op": {float64(leaf.calls) / ops, "count"},

		"engine.busy_ns_per_op":     {float64(leaf.hostNs) / ops, "ns"},
		"engine.self_ns_per_op":     {(float64(leaf.hostNs) - devNs) / ops, "ns"},
		"engine.put_ns":             {ratio(float64(put.hostNs), float64(put.calls)), "ns"},
		"engine.get_ns":             {ratio(float64(get.hostNs), float64(get.calls)), "ns"},
		"engine.put_p999_ns":        {putHist.quantile(0.999), "ns"},
		"engine.wa_a":               {last.WAA(), "B/B"},
		"engine.stall_share":        {ratio(float64(last.StallTime), float64(last.T)), "share"},
		"engine.read_pages_per_get": {ratio(float64(last.HostReadB)/pageSize, float64(last.Reads)), "count"},

		"lsm.flushes":                       {float64(io.flushes), "count"},
		"lsm.compactions":                   {float64(io.compactions), "count"},
		"lsm.compaction_write_b_per_user_b": {ratio(float64(io.compactionWriteB), float64(last.UserBytes)), "B/B"},
		"lsm.stall_events":                  {float64(io.stallEvents), "count"},

		"tree.cache_hit_ratio":         {ratio(float64(io.hits), float64(io.hits+io.misses)), "share"},
		"tree.eviction_writes_per_op":  {float64(io.evictionWrites) / ops, "count"},
		"tree.checkpoints":             {float64(io.checkpoints), "count"},
		"tree.checkpoint_pages_per_op": {float64(io.checkpointPgs) / ops, "count"},
		"betree.msgs_per_flush":        {ratio(float64(io.flushedMsgs), float64(io.bufferFlushes)), "count"},
		"betree.buffer_hit_ratio":      {ratio(float64(io.bufferHits), float64(last.Reads)), "share"},

		"blockdev.busy_ns_per_op":       {devNs / ops, "ns"},
		"blockdev.self_ns_per_op":       {float64(cost.blockdevNs-cost.flashNs) / ops, "ns"},
		"blockdev.write_calls_per_op":   {float64(write.calls) / ops, "count"},
		"blockdev.read_calls_per_op":    {float64(read.calls) / ops, "count"},
		"blockdev.pages_per_write":      {ratio(float64(write.pages), float64(write.calls)), "count"},
		"blockdev.discard_pages_per_op": {float64(discard.pages) / ops, "count"},
		"blockdev.syncs_per_write_op":   {ratio(float64(syncs), float64(last.Ops-last.Reads)), "count"},
		"blockdev.virt_us_per_write":    {ratio(float64(write.virtNs), float64(write.calls)) / scale / 1e3, "virt_us"},
		"blockdev.virt_us_per_read":     {ratio(float64(read.virtNs), float64(read.calls)) / scale / 1e3, "virt_us"},

		"flash.replay_ns_per_op":   {float64(cost.flashNs) / ops, "ns"},
		"flash.wa_d":               {last.WAD(), "B/B"},
		"flash.gc_relocated_share": {ratio(flashPages-hostPages, flashPages), "share"},
		"flash.erases_per_host_gb": {ratio(float64(t.erases), hostPages*pageSize/(1<<30)), "1/GiB"},
		"flash.busy_share":         {ratio(float64(t.busy), float64(last.T)*lanes), "share"},
		"trace.host_ns_per_op":     {float64(t.wall) / ops, "ns"},
		"trace.overhead_pct":       {100 * (float64(t.wall)/ops - float64(u.wall)/float64(u.ops)) / (float64(u.wall) / float64(u.ops)), "%"},
	}
}
