// Package devdiff is the differential checker between the two device
// authorities: the same seeded kvtest.OpLog — 15 % gets, 15 % deletes,
// the rest puts whose values carry the seed — drives two identical
// engine stacks, one over the simulated flash block device
// (internal/blockdev with its content store) and one over a real
// backing file (internal/filedev), and everything logically observable
// must agree — per-op results, engine stats, host I/O counters, the
// per-LBA write histogram, the full device image byte for byte, and a
// complete scan of both recovered engines.
//
// The two backends charge different virtual-time costs, so the driver
// is built to make timing irrelevant: ops are submitted on a fixed
// one-minute grid (dwarfing any per-op latency difference) and both
// engines quiesce together every few ops, draining background work at
// identical logical times. Any remaining divergence is a real
// behavioural difference between the backends — which is exactly what
// the checker exists to catch.
package devdiff

import (
	"bytes"
	"fmt"
	"maps"
	"path/filepath"
	"slices"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/crash"
	"ptsbench/internal/engine"
	"ptsbench/internal/kv"
	"ptsbench/internal/kvtest"
	"ptsbench/internal/sim"
	"ptsbench/internal/stack"
)

// quiesceEvery is the op interval at which both stacks drain background
// work together. Small enough that time-triggered maintenance can never
// drift across backends by more than one window.
const quiesceEvery = 32

// flushEvery is the op interval at which both stacks take a full flush
// (memtable rotation / checkpoint) so on-device structure beyond the
// journal tail enters the image comparison.
const flushEvery = 192

// gridStep spaces op submissions far beyond any per-op latency
// difference between the backends, so completion times never influence
// which virtual time an op (or a quiesce) runs at.
const gridStep = sim.Duration(time.Minute)

// Spec declares one differential run.
type Spec struct {
	// Engine names a registered engine driver.
	Engine string
	// Ops is the op-log length. Default 600.
	Ops int
	// Keys bounds the key space. Default max(16, Ops/8).
	Keys int
	// Seed drives the op log.
	Seed uint64
	// Dir, when non-empty, keeps the file backend's image there
	// (default: a temp file, removed).
	Dir string
}

// Report summarizes a passing run.
type Report struct {
	Engine        string
	Ops           int
	Counters      blockdev.Counters // identical on both devices
	PagesWritten  int64             // LBAs with at least one write
	PagesCompared int64             // full image size, in pages
	ScanEntries   int               // recovered entries compared
}

func (s Spec) validate() (Spec, error) {
	if s.Engine == "" {
		return s, fmt.Errorf("devdiff: engine is required")
	}
	if _, err := engine.Lookup(s.Engine); err != nil {
		return s, fmt.Errorf("devdiff: %w", err)
	}
	if s.Ops == 0 {
		s.Ops = 600
	}
	log, err := kvtest.OpLog{Ops: s.Ops, Keys: s.Keys}.Validate()
	if err != nil {
		return s, fmt.Errorf("devdiff: %w", err)
	}
	s.Keys = log.Keys
	return s, nil
}

// Run executes the differential check and fails on the first
// divergence between the simulated and file-backed stacks.
func Run(spec Spec) (*Report, error) {
	spec, err := spec.validate()
	if err != nil {
		return nil, err
	}
	dir, cleanup, err := stack.ImageDir(spec.Dir, "ptsbench-devdiff-")
	if err != nil {
		return nil, err
	}
	defer cleanup()

	// Two stacks from one layout — identical geometry, so the filesystem
	// allocators see identical capacity on both sides — differing only
	// in the device authority.
	tunables := crash.DurabilityTunables(spec.Engine)
	maps.Copy(tunables, diffTunables(spec.Engine))
	layout := stack.Small(spec.Engine, tunables)
	layout.Content = true
	layout.RNG = sim.NewRNG(1)
	sstk, err := stack.Build(layout)
	if err != nil {
		return nil, err
	}
	layout.File.Path = filepath.Join(dir, "dev.img")
	layout.RNG = sim.NewRNG(1)
	fstk, err := stack.Build(layout)
	if err != nil {
		return nil, err
	}
	defer fstk.Close()

	rep := &Report{Engine: spec.Engine, Ops: spec.Ops}
	sstk.Host.KeepWriteHist()
	fstk.Host.KeepWriteHist()
	if err := drive(spec, sstk, fstk); err != nil {
		return rep, err
	}
	if err := compareHosts(rep, sstk.Host, fstk.Host); err != nil {
		return rep, err
	}
	if err := compareImages(rep, sstk.Host, fstk.Host); err != nil {
		return rep, err
	}
	if err := compareRecovered(rep, spec, sstk, fstk); err != nil {
		return rep, err
	}
	return rep, nil
}

// diffTunables pins clock-driven maintenance off for the differential
// run. The cowtree family's interval checkpoint compares a
// device-latency-contaminated `now` against the interval, so a trigger
// landing near the submission grid can tip on which backend's latency
// is larger — a timing artifact, not a behavioural divergence. A small
// pending-bytes threshold keeps checkpoints happening, driven purely by
// logical state the two backends share.
func diffTunables(eng string) map[string]string {
	switch eng {
	case "lsm": // flushes and compactions are size-triggered already
		return nil
	default: // cowtree family
		return map[string]string{
			"checkpoint_interval":      "16384h",
			"checkpoint_pending_bytes": "262144",
		}
	}
}

// drive replays the seeded op log against both engines in lockstep,
// comparing every per-op result, then quiesces both.
func drive(spec Spec, sstk, fstk *stack.Stack) error {
	seng, feng := sstk.Engine, fstk.Engine
	log := kvtest.OpLog{Ops: spec.Ops, Keys: spec.Keys, GetPct: 15, DeletePct: 15, Tag: spec.Seed}
	for i, op := range log.Gen(sim.NewRNG(spec.Seed ^ 0xD1FFD1FFD1FFD1FF)) {
		now := sim.Duration(i+1) * gridStep
		_, sv, sfound, serr := log.Apply(seng, now, op)
		_, fv, ffound, ferr := log.Apply(feng, now, op)
		if serr != nil || ferr != nil {
			return fmt.Errorf("devdiff: op %d (%v key %d): sim %v, file %v", i, op.Kind, op.ID, serr, ferr)
		}
		if sfound != ffound || !bytes.Equal(sv, fv) {
			return fmt.Errorf("devdiff: op %d (%v key %d) diverged: sim found=%v, file found=%v", i, op.Kind, op.ID, sfound, ffound)
		}
		if (i+1)%flushEvery == 0 {
			// A full flush forces real structure — SSTs, leaves,
			// checkpoints — onto the device, so the image comparison
			// covers more than the journal tail.
			q := now + gridStep/2
			if _, err := seng.FlushAll(q); err != nil {
				return fmt.Errorf("devdiff: sim flush at op %d: %w", i, err)
			}
			if _, err := feng.FlushAll(q); err != nil {
				return fmt.Errorf("devdiff: file flush at op %d: %w", i, err)
			}
		} else if (i+1)%quiesceEvery == 0 {
			q := now + gridStep/2
			seng.Quiesce(q)
			feng.Quiesce(q)
		}
	}
	end := sim.Duration(spec.Ops+1) * gridStep
	seng.Quiesce(end)
	feng.Quiesce(end)
	if s, f := seng.Stats(), feng.Stats(); s != f {
		return fmt.Errorf("devdiff: engine stats diverged:\nsim  %+v\nfile %+v", s, f)
	}
	return nil
}

// compareHosts checks the logical I/O instrumentation: iostat counters
// and the per-LBA write histogram must be identical.
func compareHosts(rep *Report, sdev, fdev blockdev.Host) error {
	sc, fc := sdev.Counters(), fdev.Counters()
	if sc != fc {
		return fmt.Errorf("devdiff: host counters diverged:\nsim  %+v\nfile %+v", sc, fc)
	}
	rep.Counters = sc
	sh, fh := sdev.WriteHist(), fdev.WriteHist()
	if !slices.Equal(sh, fh) {
		for i := range sh {
			if sh[i] != fh[i] {
				return fmt.Errorf("devdiff: write histogram diverged at LBA %d: sim %d, file %d", i, sh[i], fh[i])
			}
		}
		return fmt.Errorf("devdiff: write histogram lengths diverged: sim %d, file %d", len(sh), len(fh))
	}
	for _, w := range sh {
		if w > 0 {
			rep.PagesWritten++
		}
	}
	return nil
}

// compareImages reads both devices end to end and demands bytewise
// equality — the backing file must hold exactly the pages the simulated
// content store holds, with zeros everywhere else. Runs after
// compareHosts so the comparison reads don't pollute the counters.
func compareImages(rep *Report, sdev, fdev blockdev.Host) error {
	ps := sdev.PageSize()
	const chunk = 64
	sbuf := make([]byte, chunk*ps)
	fbuf := make([]byte, chunk*ps)
	pages := sdev.Pages()
	for off := int64(0); off < pages; off += chunk {
		n := int(min(int64(chunk), pages-off))
		if _, err := sdev.ReadErr(0, off, n, sbuf[:n*ps]); err != nil {
			return fmt.Errorf("devdiff: reading the sim image: %w", err)
		}
		if _, err := fdev.ReadErr(0, off, n, fbuf[:n*ps]); err != nil {
			return fmt.Errorf("devdiff: reading the file image: %w", err)
		}
		if !bytes.Equal(sbuf[:n*ps], fbuf[:n*ps]) {
			for i := 0; i < n; i++ {
				if !bytes.Equal(sbuf[i*ps:(i+1)*ps], fbuf[i*ps:(i+1)*ps]) {
					return fmt.Errorf("devdiff: device images diverged at LBA %d", off+int64(i))
				}
			}
		}
	}
	rep.PagesCompared = pages
	return nil
}

// compareRecovered closes and reopens the backing file (the file side's
// real restart), recovers both engines through the registry, and
// compares a full scan of each.
func compareRecovered(rep *Report, spec Spec, sstk, fstk *stack.Stack) error {
	if err := fstk.PowerCycle(); err != nil {
		return err
	}
	now := sim.Duration(spec.Ops+2) * gridStep
	seng, snow, err := sstk.Recover(sim.NewRNG(2), now)
	if err != nil {
		return fmt.Errorf("devdiff: sim recovery: %w", err)
	}
	feng, fnow, err := fstk.Recover(sim.NewRNG(2), now)
	if err != nil {
		return fmt.Errorf("devdiff: file recovery: %w", err)
	}
	scanNow := max(snow, fnow)
	_, sentries, err := seng.Scan(scanNow, kv.EncodeKey(0), spec.Keys+16)
	if err != nil {
		return fmt.Errorf("devdiff: sim recovered scan: %w", err)
	}
	_, fentries, err := feng.Scan(scanNow, kv.EncodeKey(0), spec.Keys+16)
	if err != nil {
		return fmt.Errorf("devdiff: file recovered scan: %w", err)
	}
	if len(sentries) != len(fentries) {
		return fmt.Errorf("devdiff: recovered scans diverged: sim %d entries, file %d", len(sentries), len(fentries))
	}
	for i := range sentries {
		if !bytes.Equal(sentries[i].Key, fentries[i].Key) || !bytes.Equal(sentries[i].Value, fentries[i].Value) {
			id, _ := kv.DecodeKey(sentries[i].Key)
			return fmt.Errorf("devdiff: recovered scans diverged at entry %d (sim key %d)", i, id)
		}
	}
	rep.ScanEntries = len(sentries)
	return nil
}
