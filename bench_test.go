package ptsbench

// Benchmark harness: one benchmark per paper figure/table (reporting the
// headline metrics via b.ReportMetric), ablation benchmarks for the
// simulator's design choices (GC victim policy, discard, die-striping
// width, B+Tree cache size), and micro-benchmarks for the hot data
// structures.
//
// Figure benchmarks run in Quick mode at a coarse scale so a full
// `go test -bench=. -benchmem` pass completes in minutes; use
// cmd/ptsbench for full-fidelity reproductions.

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"ptsbench/internal/betree"
	"ptsbench/internal/blockdev"
	"ptsbench/internal/btree"
	"ptsbench/internal/core"
	"ptsbench/internal/extfs"
	"ptsbench/internal/figures"
	"ptsbench/internal/flash"
	"ptsbench/internal/kv"
	"ptsbench/internal/lsm"
	"ptsbench/internal/memtable"
	"ptsbench/internal/sim"
	"ptsbench/internal/sstable"
)

// benchOptions are the fast settings shared by figure benchmarks.
func benchOptions() figures.Options {
	return figures.Options{Quick: true, Scale: 256, Seed: 1}
}

// runFigure executes a figure once per benchmark iteration.
func runFigure(b *testing.B, id string) *figures.Report {
	b.Helper()
	var rep *figures.Report
	var err error
	for i := 0; i < b.N; i++ {
		rep, err = figures.Run(id, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
	}
	return rep
}

// reportFirstTable surfaces a table's numeric cells as benchmark metrics.
func reportFirstTable(b *testing.B, rep *figures.Report) {
	b.Helper()
	if len(rep.Tables) == 0 {
		return
	}
	t := rep.Tables[0]
	for _, row := range t.Rows {
		for ci := 1; ci < len(row); ci++ {
			v, err := strconv.ParseFloat(row[ci], 64)
			if err != nil {
				continue
			}
			name := fmt.Sprintf("%s/%s", row[0], t.Header[ci])
			b.ReportMetric(v, sanitizeMetric(name))
			break // first numeric column per row keeps output readable
		}
	}
}

func sanitizeMetric(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '\\':
			out = append(out, '_')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// BenchmarkFig2Throughput regenerates Fig 2a/2b (KV and device throughput
// over time on a trimmed SSD).
func BenchmarkFig2Throughput(b *testing.B) {
	rep := runFigure(b, "fig2")
	reportFirstTable(b, rep)
}

// BenchmarkFig2WriteAmp re-reports Fig 2c/2d's steady write-amplification
// values from the same experiment.
func BenchmarkFig2WriteAmp(b *testing.B) {
	rep := runFigure(b, "fig2")
	for _, t := range rep.Tables {
		for _, row := range t.Rows {
			if row[0] == "WA-A" || row[0] == "WA-D" {
				if v, err := strconv.ParseFloat(row[1], 64); err == nil {
					b.ReportMetric(v, sanitizeMetric(t.Title+"/"+row[0]))
				}
			}
		}
	}
}

// BenchmarkFig3InitialState regenerates Fig 3 (trimmed vs preconditioned).
func BenchmarkFig3InitialState(b *testing.B) {
	rep := runFigure(b, "fig3")
	reportFirstTable(b, rep)
}

// BenchmarkFig4LBACDF regenerates Fig 4 (LBA write CDF).
func BenchmarkFig4LBACDF(b *testing.B) {
	rep := runFigure(b, "fig4")
	reportFirstTable(b, rep)
}

// BenchmarkFig5DatasetSize regenerates Fig 5 (dataset-size sweep).
func BenchmarkFig5DatasetSize(b *testing.B) {
	rep := runFigure(b, "fig5")
	reportFirstTable(b, rep)
}

// BenchmarkFig6SpaceAmp regenerates Fig 6a/6b (utilization and space
// amplification sweep).
func BenchmarkFig6SpaceAmp(b *testing.B) {
	rep := runFigure(b, "fig6")
	reportFirstTable(b, rep)
}

// BenchmarkFig6CostHeatmap checks the Fig 6c cost-model winner at the
// paper's illustrative corner points.
func BenchmarkFig6CostHeatmap(b *testing.B) {
	rep := runFigure(b, "fig6")
	for _, t := range rep.Tables {
		if t.Title == "Cheaper system (fewer drives)" && len(t.Rows) > 0 {
			b.Logf("heatmap top row: %v", t.Rows[0])
		}
	}
}

// BenchmarkFig7Overprovisioning regenerates Fig 7 (extra OP).
func BenchmarkFig7Overprovisioning(b *testing.B) {
	rep := runFigure(b, "fig7")
	reportFirstTable(b, rep)
}

// BenchmarkFig8OPCostHeatmap regenerates Fig 8 (OP cost heatmap).
func BenchmarkFig8OPCostHeatmap(b *testing.B) {
	runFigure(b, "fig8")
}

// BenchmarkFig9SSDTypes regenerates Fig 9 (throughput per SSD type).
func BenchmarkFig9SSDTypes(b *testing.B) {
	rep := runFigure(b, "fig9")
	reportFirstTable(b, rep)
}

// BenchmarkFig10Variability regenerates Fig 10 (1-minute variability).
func BenchmarkFig10Variability(b *testing.B) {
	runFigure(b, "fig10")
}

// BenchmarkFig11MixedRW regenerates Fig 11a/11b (50:50 read:write).
func BenchmarkFig11MixedRW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := core.Spec{
			Engine:       core.LSM,
			Scale:        256,
			ReadFraction: 0.5,
			Duration:     60 * time.Minute,
			Seed:         1,
		}
		if _, err := core.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11SmallValues regenerates Fig 11c/11d (128-byte values).
func BenchmarkFig11SmallValues(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := core.Spec{
			Engine:     core.LSM,
			Scale:      1024,
			ValueBytes: 128,
			Duration:   60 * time.Minute,
			Seed:       1,
		}
		if _, err := core.Run(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyStateDetection exercises the §4.1 guideline machinery
// (CUSUM steady-state detection) on a real experiment series.
func BenchmarkSteadyStateDetection(b *testing.B) {
	res, err := core.Run(core.Spec{
		Engine:   core.LSM,
		Scale:    256,
		Duration: 90 * time.Minute,
		Seed:     1,
	})
	if err != nil {
		b.Fatal(err)
	}
	_, kops := res.Series.ThroughputSeries(6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := core.SteadyStateIndex(kops, 0.05, 1.0)
		if idx < -1 {
			b.Fatal("impossible")
		}
	}
}

// ---- Ablation benchmarks (one per simulator design choice) ----

// BenchmarkAblationGCPolicy contrasts greedy and random GC victim
// selection at fixed utilization: greedy should relocate far less.
func BenchmarkAblationGCPolicy(b *testing.B) {
	for _, policy := range []struct {
		name string
		gc   flash.GCPolicy
	}{{"greedy", flash.GCGreedy}, {"random", flash.GCRandom}} {
		b.Run(policy.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev, err := flash.NewDevice(flash.Config{
					LogicalBytes:  64 << 20,
					PageSize:      4096,
					PagesPerBlock: 64,
					GC:            policy.gc,
					Profile:       flash.ProfileSSD1().Scaled(4096),
				})
				if err != nil {
					b.Fatal(err)
				}
				rng := sim.NewRNG(1)
				pages := dev.LogicalPages()
				var now sim.Duration
				for j := int64(0); j < pages*3; j++ {
					now = dev.SubmitWrite(now, int64(rng.Uint64n(uint64(pages))), 1)
				}
				b.ReportMetric(dev.WAD(), "WA-D")
			}
		})
	}
}

// BenchmarkAblationDiscard contrasts nodiscard (the paper's mount mode)
// with discard-on-delete for the LSM's file churn.
func BenchmarkAblationDiscard(b *testing.B) {
	for _, mode := range []struct {
		name    string
		discard bool
	}{{"nodiscard", false}, {"discard", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				wad, err := lsmChurnWAD(mode.discard)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(wad, "WA-D")
			}
		})
	}
}

// lsmChurnWAD runs a short LSM churn on a small device and returns WA-D.
func lsmChurnWAD(discard bool) (float64, error) {
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  256 << 20,
		PageSize:      4096,
		PagesPerBlock: 256,
		Profile:       flash.ProfileSSD1().Scaled(1024),
	})
	if err != nil {
		return 0, err
	}
	bdev := blockdev.New(ssd)
	fs, err := extfs.Mount(bdev, extfs.Options{Discard: discard})
	if err != nil {
		return 0, err
	}
	cfg := lsm.NewConfig(128 << 20)
	cfg.CPUPutTime *= 1024
	cfg.CPUGetTime *= 1024
	cfg.DelayedWriteBytesPerSec /= 1024
	db, err := lsm.Open(fs, cfg, sim.NewRNG(2))
	if err != nil {
		return 0, err
	}
	rng := sim.NewRNG(3)
	numKeys := uint64((128 << 20) / 4000)
	var now sim.Duration
	key := make([]byte, kv.KeySize)
	for id := uint64(0); id < numKeys; id++ {
		kv.AppendKey(key, id)
		if now, err = db.Put(now, key, nil, 4000); err != nil {
			return 0, err
		}
	}
	base := ssd.Stats()
	for i := uint64(0); i < numKeys*4; i++ {
		kv.AppendKey(key, rng.Uint64n(numKeys))
		if now, err = db.Put(now, key, nil, 4000); err != nil {
			return 0, err
		}
	}
	if _, err := db.FlushAll(now); err != nil {
		return 0, err
	}
	return ssd.Stats().Sub(base).WAD(), nil
}

// BenchmarkAblationStreams sweeps the FTL's die-striping width
// (flash.Config.Streams), the placement-mixing knob.
func BenchmarkAblationStreams(b *testing.B) {
	for _, streams := range []int{1, 16, 96} {
		b.Run(fmt.Sprintf("streams-%d", streams), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dev, err := flash.NewDevice(flash.Config{
					LogicalBytes:  64 << 20,
					PageSize:      4096,
					PagesPerBlock: 64,
					Streams:       streams,
					Profile:       flash.ProfileSSD1().Scaled(4096),
				})
				if err != nil {
					b.Fatal(err)
				}
				// Interleave a hot stream (first quarter of the LBA
				// space, rewritten repeatedly in 64-page chunks) with a
				// cold stream (the rest, written once). With one open
				// block per write a chunk owns whole erase blocks and
				// self-invalidates on rewrite; striping scatters hot and
				// cold pages into the same blocks, forcing relocations —
				// the placement effect Streams models.
				pages := dev.LogicalPages()
				hot := pages / 4
				var now sim.Duration
				coldCursor := hot
				rng := sim.NewRNG(9)
				for i := 0; i < int(pages/64)*4; i++ {
					hp := int64(rng.Uint64n(uint64(hot/64))) * 64
					now = dev.SubmitWrite(now, hp, 64)
					if coldCursor+64 <= pages {
						now = dev.SubmitWrite(now, coldCursor, 64)
						coldCursor += 64
					}
				}
				b.ReportMetric(dev.WAD(), "WA-D")
			}
		})
	}
}

// BenchmarkAblationBTreeCache sweeps the B+Tree cache size: the paper's
// 10 MiB cache forces an eviction write per update; larger caches absorb
// rewrites.
func BenchmarkAblationBTreeCache(b *testing.B) {
	for _, cacheKB := range []int64{256, 1024, 8192} {
		b.Run(fmt.Sprintf("cache-%dKB", cacheKB), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ssd, err := flash.NewDevice(flash.Config{
					LogicalBytes:  128 << 20,
					PageSize:      4096,
					PagesPerBlock: 64,
					Profile:       flash.ProfileSSD1().Scaled(2048),
				})
				if err != nil {
					b.Fatal(err)
				}
				bdev := blockdev.New(ssd)
				fs, err := extfs.Mount(bdev, extfs.Options{})
				if err != nil {
					b.Fatal(err)
				}
				cfg := btree.NewConfig(32 << 20)
				cfg.CacheBytes = cacheKB << 10
				tr, err := btree.Open(fs, cfg)
				if err != nil {
					b.Fatal(err)
				}
				rng := sim.NewRNG(4)
				const keys = 8000
				var now sim.Duration
				for id := uint64(0); id < keys; id++ {
					if now, err = tr.Put(now, kv.EncodeKey(id), nil, 4000); err != nil {
						b.Fatal(err)
					}
				}
				user := tr.Stats().UserBytesWritten
				host := bdev.Counters().BytesWritten
				for j := 0; j < keys*2; j++ {
					if now, err = tr.Put(now, kv.EncodeKey(rng.Uint64n(keys)), nil, 4000); err != nil {
						b.Fatal(err)
					}
				}
				waa := float64(bdev.Counters().BytesWritten-host) /
					float64(tr.Stats().UserBytesWritten-user)
				b.ReportMetric(waa, "WA-A")
			}
		})
	}
}

// ---- Micro-benchmarks for the core data structures ----

func BenchmarkMemtablePut(b *testing.B) {
	m := memtable.New(sim.NewRNG(1))
	key := make([]byte, kv.KeySize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.AppendKey(key, uint64(i%100000))
		m.Put(key, nil, 128, uint64(i), false)
	}
}

func BenchmarkMemtableGet(b *testing.B) {
	m := memtable.New(sim.NewRNG(1))
	for i := uint64(0); i < 100000; i++ {
		m.Put(kv.EncodeKey(i), nil, 128, i, false)
	}
	key := make([]byte, kv.KeySize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.AppendKey(key, uint64(i%100000))
		if m.Get(key) == nil {
			b.Fatal("missing key")
		}
	}
}

func BenchmarkSSTableBuild(b *testing.B) {
	entries := make([]kv.Entry, 10000)
	for i := range entries {
		entries[i] = kv.Entry{Key: kv.EncodeKey(uint64(i)), ValueLen: 128, Seq: uint64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld := sstable.NewBuilder(4096, sstable.DefaultBlockBytes, false)
		for j := range entries {
			if err := bld.Add(&entries[j]); err != nil {
				b.Fatal(err)
			}
		}
		bld.Finish(uint64(i))
	}
}

func BenchmarkBloomFilter(b *testing.B) {
	bl := sstable.NewBloom(100000)
	for i := uint64(0); i < 100000; i++ {
		bl.Add(kv.EncodeKey(i))
	}
	key := make([]byte, kv.KeySize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.AppendKey(key, uint64(i))
		bl.MayContain(key)
	}
}

func BenchmarkFTLRandomWrite(b *testing.B) {
	dev, err := flash.NewDevice(flash.Config{
		LogicalBytes:  256 << 20,
		PageSize:      4096,
		PagesPerBlock: 256,
		Profile:       flash.ProfileSSD1().Scaled(1024),
	})
	if err != nil {
		b.Fatal(err)
	}
	// Pre-fill so GC participates.
	pages := dev.LogicalPages()
	var now sim.Duration
	for p := int64(0); p < pages; p += 256 {
		now = dev.SubmitWrite(now, p, 256)
	}
	rng := sim.NewRNG(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = dev.SubmitWrite(now, int64(rng.Uint64n(uint64(pages))), 1)
	}
}

func BenchmarkBTreePut(b *testing.B) {
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  512 << 20,
		PageSize:      4096,
		PagesPerBlock: 256,
		Profile:       flash.ProfileSSD1().Scaled(512),
	})
	if err != nil {
		b.Fatal(err)
	}
	fs, err := extfs.Mount(blockdev.New(ssd), extfs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := btree.Open(fs, btree.NewConfig(128<<20))
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	key := make([]byte, kv.KeySize)
	var now sim.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.AppendKey(key, rng.Uint64n(50000))
		if now, err = tr.Put(now, key, nil, 512); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBeTreePut(b *testing.B) {
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  512 << 20,
		PageSize:      4096,
		PagesPerBlock: 256,
		Profile:       flash.ProfileSSD1().Scaled(512),
	})
	if err != nil {
		b.Fatal(err)
	}
	fs, err := extfs.Mount(blockdev.New(ssd), extfs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tr, err := betree.Open(fs, betree.NewConfig(128<<20))
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(1)
	key := make([]byte, kv.KeySize)
	var now sim.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.AppendKey(key, rng.Uint64n(50000))
		if now, err = tr.Put(now, key, nil, 512); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBetradeoff regenerates the Bε-tree ε × read-fraction
// trade-off figure at the benchmark scale.
func BenchmarkBetradeoff(b *testing.B) {
	rep := runFigure(b, "betradeoff")
	reportFirstTable(b, rep)
}

func BenchmarkLSMPut(b *testing.B) {
	ssd, err := flash.NewDevice(flash.Config{
		LogicalBytes:  512 << 20,
		PageSize:      4096,
		PagesPerBlock: 256,
		Profile:       flash.ProfileSSD1().Scaled(512),
	})
	if err != nil {
		b.Fatal(err)
	}
	fs, err := extfs.Mount(blockdev.New(ssd), extfs.Options{})
	if err != nil {
		b.Fatal(err)
	}
	db, err := lsm.Open(fs, lsm.NewConfig(128<<20), sim.NewRNG(1))
	if err != nil {
		b.Fatal(err)
	}
	rng := sim.NewRNG(2)
	key := make([]byte, kv.KeySize)
	var now sim.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv.AppendKey(key, rng.Uint64n(50000))
		if now, err = db.Put(now, key, nil, 512); err != nil {
			b.Fatal(err)
		}
	}
}
