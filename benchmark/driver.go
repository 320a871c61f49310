package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"ptsbench/internal/blockdev"
	"ptsbench/internal/core"
	"ptsbench/internal/engine"
	"ptsbench/internal/extfs"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/replica"
	"ptsbench/internal/sim"
	"ptsbench/internal/store"
	"ptsbench/internal/workload"
)

// The driver runs one experiment cell through the same public surfaces
// core.Run uses, but as two separately timed phases (setUp, measure) and
// with an optional tracer interposed at the stack's two interface seams.
// It deliberately mirrors core.Run's unexported pieces — the shard and
// replica seed derivation and the client wave state machine — and
// driver_test.go pins the result to core.Run's bit for bit, so the
// benchmark can never drift from the runner users call.

// stack is one engine stack's inspectable pieces. rig.stacks lists them
// shard-major, replica-minor: the order of store.Devs().
type stack struct {
	shard, replica int
	eng            engine.Engine // the engine itself, never a shim
	dev            *blockdev.Device
	flashCfg       flash.Config
	// aging is the start state of the preconditioning stream, kept so
	// the flash replay can age an identical device.
	aging *sim.RNG
}

// rig is a loaded store ready for the measured phase.
type rig struct {
	spec         core.Spec
	st           *store.Store
	stacks       []*stack
	rng          *sim.RNG
	tr           *tracer // nil when untraced
	numKeys      uint64
	datasetBytes int64
	capacity     int64 // scaled device capacity, all shards of one replica
	now          sim.Duration
}

// setUp builds the cell's stacks, ages the drives, loads the dataset and
// quiesces: everything before the measured phase, and what setup_s times.
func setUp(spec core.Spec, tr *tracer) (*rig, error) {
	drv, err := engine.Lookup(string(spec.Engine))
	if err != nil {
		return nil, err
	}
	r := &rig{spec: spec, rng: sim.NewRNG(spec.Seed), tr: tr}
	r.capacity = spec.Device.CapacityBytes / spec.Scale
	scaledPPB := spec.Device.PagesPerBlock / int(spec.Scale)
	if scaledPPB < 64 {
		scaledPPB = 64
	}
	r.datasetBytes = int64(float64(spec.Device.CapacityBytes)*spec.DatasetFraction) / spec.Scale
	r.numKeys = uint64(r.datasetBytes / int64(spec.ValueBytes))
	if r.numKeys == 0 {
		return nil, errors.New("dataset too small for value size")
	}

	openStack := func(i, rep int, stackRNG *sim.RNG) (engine.Engine, blockdev.Host, error) {
		s := &stack{shard: i, replica: rep, flashCfg: flash.Config{
			LogicalBytes:  r.capacity / int64(spec.Shards),
			PageSize:      spec.Device.PageSize,
			PagesPerBlock: scaledPPB,
			Profile:       spec.Device.Profile.Scaled(spec.Scale),
		}}
		ssd, err := flash.NewDevice(s.flashCfg)
		if err != nil {
			return nil, nil, fmt.Errorf("building device: %w", err)
		}
		s.dev = blockdev.New(ssd)
		if spec.Initial == core.Preconditioned {
			aging := stackRNG.Split()
			saved := *aging
			s.aging = &saved
			ssd.PreconditionRange(aging, 0, s.dev.Pages(), 2)
		}
		var target blockdev.Dev = s.dev
		if tr != nil {
			target = tr.wrapDev(s)
		}
		fs, err := extfs.Mount(target, extfs.Options{})
		if err != nil {
			return nil, nil, err
		}
		cfg := drv.Configure(engine.Sizing{
			DatasetBytes: r.datasetBytes / int64(spec.Shards),
			Scale:        spec.Scale,
			QueueDepth:   spec.QueueDepth,
		})
		if err := cfg.ApplyTunables(spec.Tunables); err != nil {
			return nil, nil, err
		}
		s.eng, err = cfg.Open(engine.Env{FS: fs, RNG: stackRNG})
		if err != nil {
			return nil, nil, err
		}
		r.stacks = append(r.stacks, s)
		eng := s.eng
		if tr != nil {
			if eng, err = tr.wrapEngine(s.eng, i, rep); err != nil {
				return nil, nil, err
			}
		}
		return eng, s.dev, nil
	}

	r.st, err = store.New(spec.Shards, func(i int) (store.Stack, error) {
		shardRNG := r.rng
		if i > 0 {
			shardRNG = sim.NewRNG(shardSeed(spec.Seed, i))
		}
		if spec.Replicas <= 1 {
			eng, host, err := openStack(i, 0, shardRNG)
			return store.Stack{Engine: eng, Dev: host}, err
		}
		mode, err := replica.ParseMode(spec.ReplMode)
		if err != nil {
			return store.Stack{}, err
		}
		members := make([]replica.Member, spec.Replicas)
		devs := make([]blockdev.Host, spec.Replicas)
		for rep := range members {
			stackRNG := shardRNG
			if rep > 0 {
				stackRNG = sim.NewRNG(replicaSeed(spec.Seed, i, rep))
			}
			eng, host, err := openStack(i, rep, stackRNG)
			if err != nil {
				return store.Stack{}, err
			}
			members[rep] = replica.Member{Engine: eng}
			devs[rep] = host
		}
		g, err := replica.New(mode, members)
		if err != nil {
			return store.Stack{}, err
		}
		var top engine.Engine = g
		if tr != nil {
			if top, err = tr.wrapEngine(g, i, groupLevel); err != nil {
				return store.Stack{}, err
			}
		}
		return store.Stack{Engine: top, Dev: devs[0], Devs: devs}, nil
	})
	if err != nil {
		return nil, err
	}
	if r.now, err = r.st.Load(spec.ValueBytes, r.numKeys); err == nil {
		r.now, err = r.st.FlushAll(0)
	}
	if err != nil {
		r.st.Close()
		return nil, fmt.Errorf("load: %w", err)
	}
	return r, nil
}

// shardSeed and replicaSeed are core's unexported stream derivations,
// mirrored (driver_test.go fails if they drift).
func shardSeed(seed uint64, shard int) uint64 {
	z := uint64(shard) + 0x6A09E667F3BCC909
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return seed ^ z ^ (z >> 31)
}

func replicaSeed(seed uint64, shard, rep int) uint64 {
	z := uint64(shard)<<20 + uint64(rep) + 0xBB67AE8584CAA73B
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return seed ^ z ^ (z >> 31)
}

// outcome is everything one measured phase produced.
type outcome struct {
	series core.Series
	lat    core.LatencySummary
	fine   *fineHist // the same latencies at <0.8% resolution
	end    sim.Duration

	ops     int64 // user ops submitted
	failed  int64 // completions with Err + Gets of a loaded key not found
	pumps   int64
	virtLat sim.Duration // Σ (Done − Submit), unscaled

	wall       time.Duration
	cpu        time.Duration
	gcShare    float64
	mallocs    uint64
	allocBytes uint64

	devs   []blockdev.Counters // measured-phase deltas, rig.stacks order
	flash  []flash.Stats       // cumulative since the device was built, rig.stacks order
	busy   sim.Duration        // Σ flash BusyTotal over the measured phase
	erases int64               // block erases over the measured phase
	io     treeIO              // engine activity over the measured phase
}

// last is the final sample: cumulative over the measured phase.
func (o *outcome) last() core.Sample { return o.series.Samples[len(o.series.Samples)-1] }

// digest fingerprints every simulated number the run produced. A change
// that only speeds the simulator up must leave it identical.
func (o *outcome) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%+v", o.last(), o.lat)
	for i := range o.devs {
		fmt.Fprintf(h, "|%+v|%+v", o.devs[i], o.flash[i])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// client is one closed-loop client; its state machine is core.runClient.
type client struct {
	gen   *workload.Generator
	now   sim.Duration
	keys  [][]byte
	batch []uint64

	held    workload.Op
	hasHeld bool

	submitted bool
	wave      bool
	waveEnd   sim.Duration
	waveErr   bool
	dueCheck  bool
	done      bool
}

func (r *rig) submit(op store.Op) {
	if r.tr == nil {
		r.st.Submit(op)
		return
	}
	t0 := r.tr.clock()
	r.st.Submit(op)
	r.tr.submitNs += r.tr.clock() - t0
}

func (r *rig) pump() []store.Completion {
	if r.tr == nil {
		return r.st.Pump()
	}
	t0 := r.tr.beginPump()
	comps := r.st.Pump()
	r.tr.endPump(t0)
	return comps
}

func (c *client) step(r *rig, id int, deadline sim.Duration) bool {
	if c.hasHeld {
		c.hasHeld = false
		c.submitSingle(r, id, c.held)
		return true
	}
	for {
		if c.now >= deadline {
			if len(c.batch) > 0 {
				c.submitWave(r, id, false)
				return true
			}
			c.done = true
			return false
		}
		op := c.gen.Next()
		if op.Kind == workload.OpRead && r.spec.QueueDepth > 1 {
			c.batch = append(c.batch, op.KeyID)
			if len(c.batch) < r.spec.QueueDepth {
				continue
			}
			c.submitWave(r, id, true)
			return true
		}
		if len(c.batch) > 0 {
			c.submitWave(r, id, false)
			c.held = op
			c.hasHeld = true
			return true
		}
		c.submitSingle(r, id, op)
		return true
	}
}

func (c *client) submitWave(r *rig, id int, due bool) {
	for i, keyID := range c.batch {
		kv.AppendKey(c.keys[i], keyID)
		r.submit(store.Op{Kind: store.Get, Client: id, Submit: c.now, KeyID: keyID, Key: c.keys[i], Wave: true})
	}
	c.batch = c.batch[:0]
	c.submitted, c.wave, c.waveEnd, c.waveErr = true, true, c.now, false
	c.dueCheck = due
}

func (c *client) submitSingle(r *rig, id int, op workload.Op) {
	kv.AppendKey(c.keys[0], op.KeyID)
	sop := store.Op{Client: id, Submit: c.now, KeyID: op.KeyID, Key: c.keys[0]}
	if op.Kind == workload.OpRead {
		sop.Kind = store.Get
	} else {
		sop.Kind = store.Put
		sop.ValueLen = r.spec.ValueBytes
	}
	r.submit(sop)
	c.submitted, c.wave = true, false
	c.dueCheck = true
}

func readGCCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// rusage is getrusage(RUSAGE_SELF); it cannot fail with these arguments.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure drives the measured phase: spec.Clients closed-loop clients,
// each submitting its next op (or read wave of QueueDepth) only after the
// previous one completed, for spec.Duration of virtual time. An
// operation error stops the run, as in core.Run.
func (r *rig) measure() (*outcome, error) {
	spec := &r.spec
	devs := r.st.Devs()
	for _, d := range devs {
		d.ResetInstrumentation()
	}
	collector := core.NewCollector(devs, r.st, r.now, spec.SampleEvery)
	gens, err := workload.NewClientGenerators(workload.Spec{
		NumKeys:      r.numKeys,
		ValueBytes:   spec.ValueBytes,
		ReadFraction: spec.ReadFraction,
		Dist:         spec.Dist,
		ZipfTheta:    spec.ZipfTheta,
		Skew:         spec.Skew,
	}, r.rng.Uint64(), spec.Clients)
	if err != nil {
		return nil, err
	}
	deadline := r.now + spec.Duration
	lat := core.NewLatencyHistogram()
	o := &outcome{fine: &fineHist{}}
	clients := make([]*client, spec.Clients)
	for i := range clients {
		keys := make([][]byte, spec.QueueDepth)
		for j := range keys {
			keys[j] = make([]byte, kv.KeySize)
		}
		clients[i] = &client{gen: gens[i], now: r.now, keys: keys, batch: make([]uint64, 0, spec.QueueDepth)}
	}
	for _, s := range r.stacks {
		o.busy -= s.dev.SSD().BusyTotal()
		o.erases -= s.dev.SSD().Stats().Erases
	}
	io0 := snapIO(r.stacks)

	// Everything above is harness input generation; the timed region
	// holds nothing but the closed loop. A collection first, as testing.B
	// does: otherwise a cycle the set-up's garbage triggered may or may
	// not still be marking the loaded heap when the clock starts.
	runtime.GC()
	if r.tr != nil {
		r.tr.startMeasure()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, tot0 := readGCCPU()
	cpu0 := cpuTime()
	t0 := time.Now()

	var firstErr error
	active := len(clients)
	for active > 0 && firstErr == nil {
		submitted := false
		for id, c := range clients {
			if c.done {
				continue
			}
			if c.step(r, id, deadline) {
				submitted = true
			} else {
				active--
			}
		}
		if !submitted {
			break
		}
		comps := r.pump()
		o.pumps++
		o.ops += int64(len(comps))
		for i := range comps {
			comp := &comps[i]
			c := clients[comp.Client]
			if comp.Err != nil {
				o.failed++
				if firstErr == nil {
					firstErr = comp.Err
				}
				if comp.Wave {
					c.waveErr = true
				} else {
					c.now = comp.Done
				}
				continue
			}
			if comp.Kind == store.Get && !comp.Found {
				o.failed++ // every key was loaded and nothing deletes
			}
			d := comp.Done - comp.Submit
			o.virtLat += d
			d /= sim.Duration(spec.Scale)
			lat.Record(d)
			o.fine.add(int64(d))
			if comp.Wave {
				if comp.Done > c.waveEnd {
					c.waveEnd = comp.Done
				}
			} else {
				c.now = comp.Done
			}
		}
		for _, c := range clients {
			if !c.submitted {
				continue
			}
			c.submitted = false
			if c.wave {
				if !c.waveErr {
					c.now = c.waveEnd
				}
				c.wave, c.waveErr = false, false
			}
			if firstErr == nil && c.dueCheck && collector.Due(c.now) {
				collector.Record(c.now)
			}
		}
	}

	o.wall = time.Since(t0)
	o.cpu = cpuTime() - cpu0
	gc1, tot1 := readGCCPU()
	runtime.ReadMemStats(&m1)
	if r.tr != nil {
		r.tr.stopMeasure()
	}
	if tot1 > tot0 {
		o.gcShare = (gc1 - gc0) / (tot1 - tot0)
	}
	o.mallocs = m1.Mallocs - m0.Mallocs
	o.allocBytes = m1.TotalAlloc - m0.TotalAlloc

	for _, c := range clients {
		if c.now > o.end {
			o.end = c.now
		}
	}
	collector.Record(o.end)
	o.series = collector.Series()
	o.lat = lat.Percentiles()
	for _, s := range r.stacks {
		o.devs = append(o.devs, s.dev.Counters())
		o.flash = append(o.flash, s.dev.SSD().Stats())
		o.busy += s.dev.SSD().BusyTotal()
		o.erases += s.dev.SSD().Stats().Erases
	}
	o.io = snapIO(r.stacks).sub(io0)
	if firstErr != nil {
		return o, fmt.Errorf("workload: %w", firstErr)
	}
	return o, nil
}

// scanKeys is how many leading keys the post-run scan must return.
const scanKeys = 10000

// verifyScan reads the first scanKeys keys back through the store and
// counts every position that is not exactly the next loaded key: the
// scan must be strictly ascending and complete. It runs after the
// outcome is taken, because a scan moves the engines' clocks and caches.
func (r *rig) verifyScan(end sim.Duration) (violations int64, err error) {
	want := int(min(uint64(scanKeys), r.numKeys))
	_, ents, err := r.st.Scan(end, make([]byte, kv.KeySize), want)
	if err != nil {
		return 0, fmt.Errorf("scan: %w", err)
	}
	for i := 0; i < want; i++ {
		if i >= len(ents) {
			violations += int64(want - i)
			break
		}
		if id, err := kv.DecodeKey(ents[i].Key); err != nil || id != uint64(i) || ents[i].Deleted {
			violations++
		}
	}
	return violations, nil
}
