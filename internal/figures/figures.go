// Package figures regenerates every table and figure of the paper's
// evaluation section (§4). Each FigN function wires the workload, engine,
// filesystem and simulated SSD through internal/core at the requested
// scale and returns a Report with the same series and rows the paper
// plots. EXPERIMENTS.md records paper-vs-measured values for each.
package figures

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"ptsbench/internal/core"
	"ptsbench/internal/costmodel"
	_ "ptsbench/internal/engine/all" // register every engine driver for core.Run
	"ptsbench/internal/flash"
)

// Options tune a figure run.
type Options struct {
	// Scale overrides the figure's default simulation scale (0 keeps
	// the default; larger is faster and coarser).
	Scale int64
	// Quick shortens run durations for smoke tests and benchmarks.
	Quick bool
	// Seed overrides the default deterministic seed.
	Seed uint64
	// Engines restricts a figure to the given engines (nil keeps the
	// figure's default set). The CLI's -engine flag feeds this.
	Engines []core.EngineKind
}

func (o Options) scale(def int64) int64 {
	if o.Scale > 0 {
		return o.Scale
	}
	return def
}

func (o Options) duration(def time.Duration) time.Duration {
	if o.Quick {
		if def > 60*time.Minute {
			return 60 * time.Minute
		}
		return def / 2
	}
	return def
}

func (o Options) seed() uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
}

// engines returns the engine iteration set: the override when given,
// the figure's default otherwise.
func (o Options) engines(def []core.EngineKind) []core.EngineKind {
	if len(o.Engines) > 0 {
		return o.Engines
	}
	return def
}

// Series is one named curve.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	X      []float64
	Y      []float64
}

// Table is one result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Report is the output of one figure reproduction.
type Report struct {
	ID      string
	Caption string
	Series  []Series
	Tables  []Table
	Notes   []string
}

// Registry maps figure IDs to their constructors.
func Registry() map[string]func(Options) (*Report, error) {
	return map[string]func(Options) (*Report, error){
		"fig2":  Fig2,
		"fig3":  Fig3,
		"fig4":  Fig4,
		"fig5":  Fig5,
		"fig6":  Fig6,
		"fig7":  Fig7,
		"fig8":  Fig8,
		"fig9":  Fig9,
		"fig10": Fig10,
		"fig11": Fig11,
		// qdsweep extends the paper: queue-depth vs throughput on a
		// device with internal channel/way parallelism.
		"qdsweep": FigQDSweep,
		// betradeoff extends the paper: the Bε-tree's three-way
		// trade-off between throughput and write amplification as the
		// buffer fraction (ε) and the read fraction vary.
		"betradeoff": FigBetradeoff,
		// shardsweep extends the paper: throughput and tail latency of
		// the sharded serving layer as shards and closed-loop clients
		// vary.
		"shardsweep": FigShardSweep,
		// replsweep extends the paper: the cost of replication —
		// throughput, tail latency and physical write traffic as the
		// replication factor and discipline (chain vs quorum) vary.
		"replsweep": FigReplSweep,
	}
}

// Run regenerates the figure with the given ID.
func Run(id string, o Options) (*Report, error) {
	f, ok := Registry()[id]
	if !ok {
		return nil, fmt.Errorf("ptsbench: unknown figure %q (have %v)", id, IDs())
	}
	return f(o)
}

// IDs lists the figure identifiers in paper order, followed by the
// extension figures.
func IDs() []string {
	return []string{"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "qdsweep", "betradeoff", "shardsweep", "replsweep"}
}

// windowSamples is how many 10s samples form the paper's 10-minute
// reporting window.
const windowSamples = 60

// baseSpec returns the paper's default experiment (§3.2, §3.5).
func baseSpec(o Options, engine core.EngineKind, init core.InitialState) core.Spec {
	return core.Spec{
		Device:          core.DefaultDevice(),
		Scale:           o.scale(128),
		Engine:          engine,
		DatasetFraction: 0.5,
		ValueBytes:      4000,
		Initial:         init,
		Duration:        o.duration(210 * time.Minute),
		SampleEvery:     10 * time.Second,
		Seed:            o.seed(),
	}
}

func engineName(k core.EngineKind) string {
	switch k {
	case core.LSM:
		return "RocksDB-like LSM"
	case core.Betree:
		return "Be-tree (buffered)"
	default:
		return "WiredTiger-like B+Tree"
	}
}

// throughputSeries extracts the scaled KOps curve.
func throughputSeries(name string, res *core.Result, window int) Series {
	t, kops := res.Series.ThroughputSeries(window)
	scaled := make([]float64, len(kops))
	for i, v := range kops {
		scaled[i] = v * float64(res.Spec.Scale)
	}
	return Series{Name: name, XLabel: "time (min)", YLabel: "KOps/s", X: t, Y: scaled}
}

func deviceWriteSeries(name string, res *core.Result, window int) Series {
	t, w, _ := res.Series.RateSeries(window)
	scaled := make([]float64, len(w))
	for i, v := range w {
		scaled[i] = v * float64(res.Spec.Scale)
	}
	return Series{Name: name, XLabel: "time (min)", YLabel: "MB/s", X: t, Y: scaled}
}

func waSeries(name string, res *core.Result, window int) (Series, Series) {
	t, waa, wad := res.Series.WASeries(window)
	return Series{Name: name + " WA-A", XLabel: "time (min)", YLabel: "WA-A", X: t, Y: waa},
		Series{Name: name + " WA-D", XLabel: "time (min)", YLabel: "WA-D", X: t, Y: wad}
}

// bothEngines is the engine pair of the paper's own evaluation; the
// dataset-size / over-provisioning / cost-model figures keep it as
// their default so they reproduce the paper's two-way comparisons.
var bothEngines = []core.EngineKind{core.LSM, core.BTree}

// allEngines adds the Bε-tree: the workload-generic figures (steady
// state, initial state, LBA coverage, SSD types, workload variants,
// queue-depth sweep) run all three tree structures by default.
var allEngines = []core.EngineKind{core.LSM, core.BTree, core.Betree}

// runCells executes a figure's independent experiment cells concurrently
// via core.RunGrid (which is documented to return bit-identical Results
// to sequential Run calls) and returns them in cell order. Every figure
// whose loop body was a plain core.Run call goes through here, so a
// figure's wall-clock cost is its slowest cell, not the sum of cells.
func runCells(id string, specs []core.Spec) ([]*core.Result, error) {
	results, err := core.RunGrid(specs, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", id, err)
	}
	return results, nil
}

// Fig2 reproduces Figure 2: KV and device throughput, WA-A and WA-D over
// time for both engines on a trimmed SSD.
func Fig2(o Options) (*Report, error) {
	rep := &Report{
		ID: "fig2",
		Caption: "Steady state vs bursty performance on a trimmed SSD: " +
			"KV throughput, device write throughput, WA-A and WA-D over time",
	}
	engines := o.engines(allEngines)
	var specs []core.Spec
	for _, eng := range engines {
		spec := baseSpec(o, eng, core.Trimmed)
		spec.Name = fmt.Sprintf("fig2 %v", eng)
		specs = append(specs, spec)
	}
	results, err := runCells("fig2", specs)
	if err != nil {
		return nil, err
	}
	for i, eng := range engines {
		res := results[i]
		if res.OutOfSpace {
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s ran out of space", engineName(eng)))
			continue
		}
		name := engineName(eng)
		rep.Series = append(rep.Series, throughputSeries(name+" throughput", res, windowSamples))
		rep.Series = append(rep.Series, deviceWriteSeries(name+" device writes", res, windowSamples))
		waa, wad := waSeries(name, res, windowSamples)
		rep.Series = append(rep.Series, waa, wad)
		rep.Tables = append(rep.Tables, steadyTable(name, res))
	}
	return rep, nil
}

func steadyTable(name string, res *core.Result) Table {
	return Table{
		Title:  name + " steady state (final quarter)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"throughput (KOps/s, paper scale)", fmt.Sprintf("%.2f", res.ScaledKOps)},
			{"WA-A", fmt.Sprintf("%.2f", res.Steady.WAA)},
			{"WA-D", fmt.Sprintf("%.2f", res.Steady.WAD)},
			{"end-to-end WA", fmt.Sprintf("%.2f", res.Steady.EndToEndWA)},
			{"space amplification", fmt.Sprintf("%.2f", res.SpaceAmp)},
			{"disk utilization (%)", fmt.Sprintf("%.1f", res.DiskUtilPct)},
			{"LBAs written (fraction)", fmt.Sprintf("%.2f", res.FracLBAs)},
		},
	}
}

// Fig3 reproduces Figure 3: throughput and WA-D over time, trimmed versus
// preconditioned initial device state.
func Fig3(o Options) (*Report, error) {
	rep := &Report{
		ID: "fig3",
		Caption: "Impact of the initial state of the SSD (trimmed vs " +
			"preconditioned) on throughput and WA-D over time",
	}
	engines := o.engines(allEngines)
	var specs []core.Spec
	for _, eng := range engines {
		for _, init := range []core.InitialState{core.Trimmed, core.Preconditioned} {
			spec := baseSpec(o, eng, init)
			spec.Name = fmt.Sprintf("fig3 %v/%v", eng, init)
			specs = append(specs, spec)
		}
	}
	results, err := runCells("fig3", specs)
	if err != nil {
		return nil, err
	}
	cell := 0
	for _, eng := range engines {
		for _, init := range []core.InitialState{core.Trimmed, core.Preconditioned} {
			res := results[cell]
			cell++
			if res.OutOfSpace {
				rep.Notes = append(rep.Notes, fmt.Sprintf("%s %v ran out of space", engineName(eng), init))
				continue
			}
			name := fmt.Sprintf("%s (%v)", engineName(eng), init)
			rep.Series = append(rep.Series, throughputSeries(name+" throughput", res, windowSamples))
			_, wad := waSeries(name, res, windowSamples)
			rep.Series = append(rep.Series, wad)
			rep.Tables = append(rep.Tables, steadyTable(name, res))
		}
	}
	return rep, nil
}

// Fig4 reproduces Figure 4: the CDF of per-LBA write counts with LBAs
// sorted by decreasing write count, for both engines on the default
// workload.
func Fig4(o Options) (*Report, error) {
	rep := &Report{
		ID: "fig4",
		Caption: "CDF of LBA write probability (LBAs sorted by decreasing " +
			"write count); WiredTiger leaves a large fraction of the LBA " +
			"space unwritten",
	}
	engines := o.engines(allEngines)
	var specs []core.Spec
	for _, eng := range engines {
		spec := baseSpec(o, eng, core.Trimmed)
		spec.Name = fmt.Sprintf("fig4 %v", eng)
		specs = append(specs, spec)
	}
	results, err := runCells("fig4", specs)
	if err != nil {
		return nil, err
	}
	for i, eng := range engines {
		res := results[i]
		x := make([]float64, len(res.LBACDF))
		for i := range x {
			x[i] = float64(i) / float64(len(x)-1)
		}
		rep.Series = append(rep.Series, Series{
			Name:   engineName(eng),
			XLabel: "LBA (normalized, sorted by decreasing writes)",
			YLabel: "CDF",
			X:      x,
			Y:      res.LBACDF,
		})
		rep.Tables = append(rep.Tables, Table{
			Title:  engineName(eng) + " LBA coverage",
			Header: []string{"metric", "value"},
			Rows: [][]string{
				{"fraction of LBAs written", fmt.Sprintf("%.2f", res.FracLBAs)},
				{"fraction never written", fmt.Sprintf("%.2f", 1-res.FracLBAs)},
			},
		})
	}
	return rep, nil
}

// fig5Fractions are the dataset-to-capacity ratios of Figure 5.
var fig5Fractions = []float64{0.25, 0.37, 0.5, 0.62}

// Fig5 reproduces Figure 5: steady-state throughput, WA-D and WA-A as a
// function of dataset size, trimmed and preconditioned.
func Fig5(o Options) (*Report, error) {
	rep := &Report{
		ID:      "fig5",
		Caption: "Impact of dataset size: steady-state throughput, WA-D and WA-A",
	}
	tput := Table{Title: "Throughput (KOps/s)", Header: []string{"config"}}
	wad := Table{Title: "WA-D", Header: []string{"config"}}
	waa := Table{Title: "WA-A", Header: []string{"config"}}
	for _, f := range fig5Fractions {
		h := fmt.Sprintf("%.2f", f)
		tput.Header = append(tput.Header, h)
		wad.Header = append(wad.Header, h)
		waa.Header = append(waa.Header, h)
	}
	engines := o.engines(bothEngines)
	var specs []core.Spec
	for _, eng := range engines {
		for _, init := range []core.InitialState{core.Trimmed, core.Preconditioned} {
			for _, frac := range fig5Fractions {
				spec := baseSpec(o, eng, init)
				spec.Name = fmt.Sprintf("fig5 %v/%v/%.2f", eng, init, frac)
				spec.DatasetFraction = frac
				spec.Duration = o.duration(150 * time.Minute)
				specs = append(specs, spec)
			}
		}
	}
	results, err := runCells("fig5", specs)
	if err != nil {
		return nil, err
	}
	cell := 0
	for _, eng := range engines {
		for _, init := range []core.InitialState{core.Trimmed, core.Preconditioned} {
			name := fmt.Sprintf("%s %v", engineName(eng), init)
			tr := []string{name}
			wr := []string{name}
			ar := []string{name}
			for range fig5Fractions {
				res := results[cell]
				cell++
				if res.OutOfSpace {
					tr = append(tr, "OOS")
					wr = append(wr, "OOS")
					ar = append(ar, "OOS")
					continue
				}
				tr = append(tr, fmt.Sprintf("%.2f", res.ScaledKOps))
				wr = append(wr, fmt.Sprintf("%.2f", res.Steady.WAD))
				ar = append(ar, fmt.Sprintf("%.1f", res.Steady.WAA))
			}
			tput.Rows = append(tput.Rows, tr)
			wad.Rows = append(wad.Rows, wr)
			waa.Rows = append(waa.Rows, ar)
		}
	}
	rep.Tables = []Table{tput, wad, waa}
	return rep, nil
}

// fig6Fractions extend the sweep to the sizes where RocksDB runs out of
// space in the paper.
var fig6Fractions = []float64{0.25, 0.37, 0.5, 0.62, 0.75, 0.88}

// Fig6 reproduces Figure 6: disk utilization, space amplification, and
// the storage-cost heatmap.
func Fig6(o Options) (*Report, error) {
	rep := &Report{
		ID:      "fig6",
		Caption: "Space amplification and its effect on storage cost",
	}
	util := Table{Title: "Disk utilization (%)", Header: []string{"config"}}
	amp := Table{Title: "Space amplification", Header: []string{"config"}}
	for _, f := range fig6Fractions {
		util.Header = append(util.Header, fmt.Sprintf("%.2f", f))
		amp.Header = append(amp.Header, fmt.Sprintf("%.2f", f))
	}
	// Measured 0.5-fraction figures feed the cost model, like the
	// paper's use of its Fig 5a/6a measurements.
	var options []costmodel.Option
	devCap := float64(core.DefaultDevice().CapacityBytes)
	engines := o.engines(bothEngines)
	var specs []core.Spec
	for _, eng := range engines {
		for _, frac := range fig6Fractions {
			spec := baseSpec(o, eng, core.Preconditioned)
			spec.Name = fmt.Sprintf("fig6 %v/%.2f", eng, frac)
			spec.DatasetFraction = frac
			spec.Duration = o.duration(120 * time.Minute)
			specs = append(specs, spec)
		}
	}
	results, err := runCells("fig6", specs)
	if err != nil {
		return nil, err
	}
	cell := 0
	for _, eng := range engines {
		ur := []string{engineName(eng)}
		ar := []string{engineName(eng)}
		for _, frac := range fig6Fractions {
			res := results[cell]
			cell++
			if res.OutOfSpace {
				ur = append(ur, "OOS")
				ar = append(ar, "OOS")
				continue
			}
			ur = append(ur, fmt.Sprintf("%.0f", res.DiskUtilPct))
			ar = append(ar, fmt.Sprintf("%.2f", res.SpaceAmp))
			if frac == 0.5 {
				options = append(options, costmodel.Option{
					Name:            engineName(eng),
					ThroughputKOps:  res.ScaledKOps,
					MaxDatasetBytes: devCap / res.SpaceAmp,
				})
			}
		}
		util.Rows = append(util.Rows, ur)
		amp.Rows = append(amp.Rows, ar)
	}
	rep.Tables = []Table{util, amp}
	if len(options) >= 2 {
		heat, err := costmodel.Compute(options, tbRange(1, 5), kopsRange(5, 25))
		if err != nil {
			return nil, err
		}
		rep.Tables = append(rep.Tables, heatTable("Cheaper system (fewer drives)", heat))
	}
	return rep, nil
}

func tbRange(lo, hi int) []float64 {
	var out []float64
	for tb := lo; tb <= hi; tb++ {
		out = append(out, float64(tb)*(1<<40))
	}
	return out
}

func kopsRange(lo, hi float64) []float64 {
	var out []float64
	for k := lo; k <= hi; k += 5 {
		out = append(out, k)
	}
	return out
}

func heatTable(title string, h *costmodel.Heatmap) Table {
	t := Table{Title: title, Header: []string{"target \\ dataset"}}
	for _, d := range h.Datasets {
		t.Header = append(t.Header, fmt.Sprintf("%.0fTB", d/(1<<40)))
	}
	for ti := len(h.Targets) - 1; ti >= 0; ti-- {
		row := []string{fmt.Sprintf("%.0f KOps", h.Targets[ti])}
		for di := range h.Datasets {
			row = append(row, h.Cells[ti][di].Winner)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig7 reproduces Figure 7: the effect of software over-provisioning
// (a 300 GB partition with 100 GB kept trimmed) on throughput and WA-D.
func Fig7(o Options) (*Report, error) {
	rep := &Report{
		ID:      "fig7",
		Caption: "Impact of extra SSD over-provisioning (OP)",
	}
	tput := Table{
		Title:  "Throughput (KOps/s)",
		Header: []string{"config", "No OP", "Extra OP"},
	}
	wad := Table{
		Title:  "WA-D",
		Header: []string{"config", "No OP", "Extra OP"},
	}
	engines := o.engines(bothEngines)
	var specs []core.Spec
	for _, eng := range engines {
		for _, init := range []core.InitialState{core.Trimmed, core.Preconditioned} {
			for _, partFrac := range []float64{1.0, 0.75} {
				spec := baseSpec(o, eng, init)
				spec.Name = fmt.Sprintf("fig7 %v/%v/%.2f", eng, init, partFrac)
				spec.PartitionFraction = partFrac
				spec.Duration = o.duration(150 * time.Minute)
				specs = append(specs, spec)
			}
		}
	}
	results, err := runCells("fig7", specs)
	if err != nil {
		return nil, err
	}
	cell := 0
	for _, eng := range engines {
		for _, init := range []core.InitialState{core.Trimmed, core.Preconditioned} {
			name := fmt.Sprintf("%s %v", engineName(eng), init)
			tr := []string{name}
			wr := []string{name}
			for range []float64{1.0, 0.75} {
				res := results[cell]
				cell++
				if res.OutOfSpace {
					tr = append(tr, "OOS")
					wr = append(wr, "OOS")
					continue
				}
				tr = append(tr, fmt.Sprintf("%.2f", res.ScaledKOps))
				wr = append(wr, fmt.Sprintf("%.2f", res.Steady.WAD))
			}
			tput.Rows = append(tput.Rows, tr)
			wad.Rows = append(wad.Rows, wr)
		}
	}
	rep.Tables = []Table{tput, wad}
	return rep, nil
}

// Fig8 reproduces Figure 8: the storage-cost heatmap comparing RocksDB
// with and without extra over-provisioning on a preconditioned SSD.
func Fig8(o Options) (*Report, error) {
	rep := &Report{
		ID:      "fig8",
		Caption: "Storage cost of RocksDB with vs without extra OP (preconditioned)",
	}
	if len(o.Engines) > 0 {
		rep.Notes = append(rep.Notes,
			"fig8 is an LSM-specific over-provisioning study; the -engine override is ignored")
	}
	devCap := float64(core.DefaultDevice().CapacityBytes)
	var options []costmodel.Option
	var specs []core.Spec
	for _, partFrac := range []float64{1.0, 0.75} {
		spec := baseSpec(o, core.LSM, core.Preconditioned)
		spec.Name = fmt.Sprintf("fig8 part=%.2f", partFrac)
		spec.PartitionFraction = partFrac
		spec.Duration = o.duration(150 * time.Minute)
		specs = append(specs, spec)
	}
	results, err := runCells("fig8", specs)
	if err != nil {
		return nil, err
	}
	for i, partFrac := range []float64{1.0, 0.75} {
		res := results[i]
		name := "No OP"
		if partFrac < 1 {
			name = "Extra OP"
		}
		if res.OutOfSpace {
			rep.Notes = append(rep.Notes, name+" ran out of space")
			continue
		}
		options = append(options, costmodel.Option{
			Name:           name,
			ThroughputKOps: res.ScaledKOps,
			// With extra OP only partFrac of the drive is usable.
			MaxDatasetBytes: devCap * partFrac / res.SpaceAmp,
		})
	}
	if len(options) == 2 {
		heat, err := costmodel.Compute(options, tbRange(1, 5), kopsRange(5, 25))
		if err != nil {
			return nil, err
		}
		rep.Tables = append(rep.Tables, heatTable("Cheaper RocksDB configuration", heat))
	}
	return rep, nil
}

// fig9Devices returns the three SSD specs of §4.7.
func fig9Devices() []core.DeviceSpec {
	d1 := core.DefaultDevice()
	d2 := core.DefaultDevice()
	d2.Profile = ssd2Profile()
	d3 := core.DefaultDevice()
	d3.Profile = ssd3Profile()
	return []core.DeviceSpec{d1, d2, d3}
}

// Fig9 reproduces Figure 9: steady throughput of both engines across the
// three SSD types, with a 10x smaller dataset and trimmed devices so GC
// effects are minimized.
func Fig9(o Options) (*Report, error) {
	rep := &Report{
		ID:      "fig9",
		Caption: "Impact of SSD type on throughput (small dataset, trimmed)",
	}
	tbl := Table{Title: "Throughput (KOps/s)", Header: []string{"engine", "SSD1", "SSD2", "SSD3"}}
	engines := o.engines(allEngines)
	var specs []core.Spec
	for _, eng := range engines {
		for _, dev := range fig9Devices() {
			spec := baseSpec(o, eng, core.Trimmed)
			spec.Name = fmt.Sprintf("fig9 %v/%s", eng, dev.Profile.Name)
			spec.Device = dev
			spec.DatasetFraction = 0.05 // 10x smaller than the default 0.5
			spec.Duration = o.duration(90 * time.Minute)
			specs = append(specs, spec)
		}
	}
	results, err := runCells("fig9", specs)
	if err != nil {
		return nil, err
	}
	cell := 0
	for _, eng := range engines {
		row := []string{engineName(eng)}
		for range fig9Devices() {
			res := results[cell]
			cell++
			row = append(row, fmt.Sprintf("%.2f", res.ScaledKOps))
		}
		tbl.Rows = append(tbl.Rows, row)
	}
	rep.Tables = []Table{tbl}
	return rep, nil
}

// Fig10 reproduces Figure 10: throughput over time (1-minute averages)
// across the three SSD types, showing per-device variability.
func Fig10(o Options) (*Report, error) {
	rep := &Report{
		ID:      "fig10",
		Caption: "Throughput variability (1-minute averages) per SSD type",
	}
	const oneMinuteWindow = 6 // 6 x 10s samples
	engines := o.engines(allEngines)
	var specs []core.Spec
	for _, eng := range engines {
		for _, dev := range fig9Devices() {
			spec := baseSpec(o, eng, core.Trimmed)
			spec.Name = fmt.Sprintf("fig10 %v/%s", eng, dev.Profile.Name)
			spec.Device = dev
			spec.DatasetFraction = 0.05
			spec.Duration = o.duration(90 * time.Minute)
			specs = append(specs, spec)
		}
	}
	results, err := runCells("fig10", specs)
	if err != nil {
		return nil, err
	}
	cell := 0
	for _, eng := range engines {
		for i := range fig9Devices() {
			res := results[cell]
			cell++
			name := fmt.Sprintf("%s SSD%d", engineName(eng), i+1)
			rep.Series = append(rep.Series, throughputSeries(name, res, oneMinuteWindow))
			rep.Tables = append(rep.Tables, variabilityTable(name, res, oneMinuteWindow))
		}
	}
	return rep, nil
}

// variabilityTable summarizes throughput swings over 1-minute windows.
func variabilityTable(name string, res *core.Result, window int) Table {
	_, kops := res.Series.ThroughputSeries(window)
	if len(kops) == 0 {
		return Table{Title: name + " variability"}
	}
	lo, hi, sum := kops[0], kops[0], 0.0
	zeros := 0
	for _, v := range kops {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
		if v < 0.001 {
			zeros++
		}
		sum += v
	}
	mean := sum / float64(len(kops))
	cv := 0.0
	if mean > 0 {
		var ss float64
		for _, v := range kops {
			ss += (v - mean) * (v - mean)
		}
		cv = sqrtF(ss/float64(len(kops))) / mean
	}
	f := float64(res.Spec.Scale)
	return Table{
		Title:  name + " variability (1-min windows)",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"min (KOps/s)", fmt.Sprintf("%.2f", lo*f)},
			{"max (KOps/s)", fmt.Sprintf("%.2f", hi*f)},
			{"mean (KOps/s)", fmt.Sprintf("%.2f", mean*f)},
			{"coeff. of variation", fmt.Sprintf("%.2f", cv)},
			{"stalled minutes", fmt.Sprintf("%d", zeros)},
		},
	}
}

// Fig11 reproduces Figure 11: the pitfalls under two workload variants —
// a 50:50 read:write mix and small (128 B) values — on trimmed and
// preconditioned devices.
func Fig11(o Options) (*Report, error) {
	rep := &Report{
		ID:      "fig11",
		Caption: "Additional workloads: 50:50 read:write mix and 128-byte values",
	}
	engines := o.engines(allEngines)
	var specs []core.Spec
	var names []string
	// 50:50 mix at the default scale.
	for _, eng := range engines {
		for _, init := range []core.InitialState{core.Trimmed, core.Preconditioned} {
			spec := baseSpec(o, eng, init)
			spec.Name = fmt.Sprintf("fig11 rw %v/%v", eng, init)
			spec.ReadFraction = 0.5
			specs = append(specs, spec)
			names = append(names, fmt.Sprintf("%s 50:50 (%v)", engineName(eng), init))
		}
	}
	// 128-byte values at a larger scale (more keys per byte).
	for _, eng := range engines {
		for _, init := range []core.InitialState{core.Trimmed, core.Preconditioned} {
			spec := baseSpec(o, eng, init)
			spec.Name = fmt.Sprintf("fig11 128B %v/%v", eng, init)
			spec.Scale = o.scale(512)
			spec.ValueBytes = 128
			specs = append(specs, spec)
			names = append(names, fmt.Sprintf("%s 128B (%v)", engineName(eng), init))
		}
	}
	results, err := runCells("fig11", specs)
	if err != nil {
		return nil, err
	}
	for i, res := range results {
		rep.Series = append(rep.Series, throughputSeries(names[i]+" throughput", res, windowSamples))
		_, wad := waSeries(names[i], res, windowSamples)
		rep.Series = append(rep.Series, wad)
	}
	return rep, nil
}

// qdSweepDepths are the host queue depths of the parallelism sweep.
var qdSweepDepths = []int{1, 4, 16, 32}

// FigQDSweep goes beyond the paper: it sweeps host queue depth on an
// SSD with 4 channels × 4 ways of internal parallelism and a read-heavy
// (95:5) workload, showing throughput growing with queue depth until
// the lane array saturates — the effect Didona et al. flag as missing
// from queue-depth-1 evaluations and Roh et al. exploit inside a
// B+Tree. The independent cells of the sweep execute concurrently via
// core.RunGrid.
//
// Engine-internal QD usage differs by design: the LSM additionally
// parallelizes the multi-table probes of a single Get
// (ProbeParallelism), while the B+Tree and Bε-tree answer a point read
// from at most one leaf — there is nothing inside one lookup to
// overlap, so their curves reflect host-level read batching alone
// (their PrefetchDepth/scan-side parallelism only matters for range
// scans, which this workload does not issue).
func FigQDSweep(o Options) (*Report, error) {
	rep := &Report{
		ID: "qdsweep",
		Caption: "Impact of host queue depth on a 4-channel x 4-way SSD " +
			"(read-heavy workload): throughput scales with I/O concurrency " +
			"until the internal lanes saturate",
	}
	dev := core.DefaultDevice()
	dev.Profile = dev.Profile.WithParallelism(4, 4)
	engines := o.engines(allEngines)
	var specs []core.Spec
	for _, eng := range engines {
		for _, qd := range qdSweepDepths {
			spec := baseSpec(o, eng, core.Trimmed)
			spec.Name = fmt.Sprintf("%v-qd%d", eng, qd)
			spec.Device = dev
			spec.Scale = o.scale(512)
			spec.QueueDepth = qd
			spec.ReadFraction = 0.95
			spec.Duration = o.duration(90 * time.Minute)
			specs = append(specs, spec)
		}
	}
	results, err := core.RunGrid(specs, 0)
	if err != nil {
		return nil, fmt.Errorf("qdsweep: %w", err)
	}
	tbl := Table{
		Title:  "Mean throughput (KOps/s, paper scale)",
		Header: []string{"engine"},
	}
	for _, qd := range qdSweepDepths {
		tbl.Header = append(tbl.Header, fmt.Sprintf("QD %d", qd))
	}
	lat := Table{
		Title:  "p99 read latency (paper scale)",
		Header: append([]string(nil), tbl.Header...),
	}
	cell := 0
	for _, eng := range engines {
		name := engineName(eng)
		s := Series{Name: name, XLabel: "queue depth", YLabel: "KOps/s"}
		tr := []string{name}
		lr := []string{name}
		for _, qd := range qdSweepDepths {
			res := results[cell]
			cell++
			if res.OutOfSpace {
				rep.Notes = append(rep.Notes, fmt.Sprintf("%s QD %d ran out of space", name, qd))
				tr = append(tr, "OOS")
				lr = append(lr, "OOS")
				continue
			}
			kops := res.MeanScaledKOps()
			s.X = append(s.X, float64(qd))
			s.Y = append(s.Y, kops)
			tr = append(tr, fmt.Sprintf("%.2f", kops))
			lr = append(lr, res.Latency.P99.String())
		}
		rep.Series = append(rep.Series, s)
		tbl.Rows = append(tbl.Rows, tr)
		lat.Rows = append(lat.Rows, lr)
	}
	rep.Tables = []Table{tbl, lat}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("device: %d channels x %d ways (%d lanes)",
			dev.Profile.Channels, dev.Profile.Ways, dev.Profile.ParallelLanes()))
	return rep, nil
}

// betradeoffEpsilons are the buffer-fraction knob settings of the
// Bε-tree trade-off sweep; 1.0 is the degenerate B+Tree point (no
// buffering).
var betradeoffEpsilons = []float64{0.4, 0.6, 0.8, 1.0}

// betradeoffReadFracs are the workload mixes of the sweep: write-heavy,
// balanced, read-heavy.
var betradeoffReadFracs = []float64{0.05, 0.5, 0.95}

// FigBetradeoff goes beyond the paper: it maps the Bε-tree's three-way
// trade-off — throughput, application-level WA and device-level WA — as
// the buffer fraction (ε) and the read fraction vary. Small ε buys
// write batching (fewer, larger leaf write-backs) at the cost of fanout
// (deeper tree); ε = 1 is the B+Tree end of the spectrum. The paper's
// steady-state methodology applies unchanged: every cell is measured
// over the tail of a long run on a trimmed device.
func FigBetradeoff(o Options) (*Report, error) {
	rep := &Report{
		ID: "betradeoff",
		Caption: "Be-tree trade-off: throughput, WA-A and WA-D vs buffer " +
			"fraction (ε) and read fraction (ε = 1 degenerates to a B+Tree)",
	}
	if len(o.Engines) > 0 && !(len(o.Engines) == 1 && o.Engines[0] == core.Betree) {
		rep.Notes = append(rep.Notes,
			"betradeoff sweeps the Bε-tree's ε knob; the -engine override is ignored")
	}
	var specs []core.Spec
	for _, rf := range betradeoffReadFracs {
		for _, eps := range betradeoffEpsilons {
			spec := baseSpec(o, core.Betree, core.Trimmed)
			spec.Name = fmt.Sprintf("betradeoff rf=%.2f eps=%.2f", rf, eps)
			spec.ReadFraction = rf
			spec.Duration = o.duration(120 * time.Minute)
			// The ε override travels as a declarative tunable (the
			// spec stays serializable); 'g'/-1 formatting round-trips
			// the float64 exactly.
			spec.Tunables = map[string]string{
				"epsilon": strconv.FormatFloat(eps, 'g', -1, 64),
			}
			specs = append(specs, spec)
		}
	}
	results, err := runCells("betradeoff", specs)
	if err != nil {
		return nil, err
	}
	tput := Table{Title: "Throughput (KOps/s)", Header: []string{"read fraction"}}
	waa := Table{Title: "WA-A", Header: []string{"read fraction"}}
	wad := Table{Title: "WA-D", Header: []string{"read fraction"}}
	for _, eps := range betradeoffEpsilons {
		h := fmt.Sprintf("ε=%.1f", eps)
		tput.Header = append(tput.Header, h)
		waa.Header = append(waa.Header, h)
		wad.Header = append(wad.Header, h)
	}
	cell := 0
	for _, rf := range betradeoffReadFracs {
		name := fmt.Sprintf("reads %.0f%%", rf*100)
		ts := Series{Name: name + " throughput", XLabel: "ε", YLabel: "KOps/s"}
		as := Series{Name: name + " WA-A", XLabel: "ε", YLabel: "WA-A"}
		ds := Series{Name: name + " WA-D", XLabel: "ε", YLabel: "WA-D"}
		tr := []string{name}
		ar := []string{name}
		dr := []string{name}
		for _, eps := range betradeoffEpsilons {
			res := results[cell]
			cell++
			if res.OutOfSpace {
				rep.Notes = append(rep.Notes, fmt.Sprintf("%s ε=%.1f ran out of space", name, eps))
				tr = append(tr, "OOS")
				ar = append(ar, "OOS")
				dr = append(dr, "OOS")
				continue
			}
			ts.X = append(ts.X, eps)
			ts.Y = append(ts.Y, res.ScaledKOps)
			as.X = append(as.X, eps)
			as.Y = append(as.Y, res.Steady.WAA)
			ds.X = append(ds.X, eps)
			ds.Y = append(ds.Y, res.Steady.WAD)
			tr = append(tr, fmt.Sprintf("%.2f", res.ScaledKOps))
			ar = append(ar, fmt.Sprintf("%.2f", res.Steady.WAA))
			dr = append(dr, fmt.Sprintf("%.2f", res.Steady.WAD))
		}
		rep.Series = append(rep.Series, ts, as, ds)
		tput.Rows = append(tput.Rows, tr)
		waa.Rows = append(waa.Rows, ar)
		wad.Rows = append(wad.Rows, dr)
	}
	rep.Tables = []Table{tput, waa, wad}
	return rep, nil
}

// shardSweepShards and shardSweepClients span the serving-layer grid:
// shard counts across the columns, closed-loop client counts across the
// series.
var (
	shardSweepShards  = []int{1, 2, 4, 8}
	shardSweepClients = []int{8, 16}
)

// FigShardSweep goes beyond the paper: it sweeps the sharded serving
// layer (internal/store) over shard and client counts on the default
// balanced workload. Each shard owns an independent engine on its own
// slice of the device, so aggregate throughput grows with shards as
// long as the clients supply enough concurrent load, while per-op
// latency reflects FIFO queueing on each shard — the classic
// partitioned-store trade-off, measured under the same deterministic
// simulation as the paper's figures.
func FigShardSweep(o Options) (*Report, error) {
	rep := &Report{
		ID: "shardsweep",
		Caption: "Throughput and tail latency of the sharded serving layer: " +
			"shards scale aggregate service capacity; clients set the " +
			"offered closed-loop concurrency",
	}
	engines := o.engines([]core.EngineKind{core.LSM})
	var specs []core.Spec
	for _, eng := range engines {
		for _, clients := range shardSweepClients {
			for _, shards := range shardSweepShards {
				spec := baseSpec(o, eng, core.Trimmed)
				spec.Name = fmt.Sprintf("%v-s%d-c%d", eng, shards, clients)
				spec.Scale = o.scale(2048)
				spec.ReadFraction = 0.5
				spec.Shards = shards
				spec.Clients = clients
				spec.Duration = o.duration(60 * time.Minute)
				specs = append(specs, spec)
			}
		}
	}
	results, err := core.RunGrid(specs, 0)
	if err != nil {
		return nil, fmt.Errorf("shardsweep: %w", err)
	}
	tput := Table{
		Title:  "Mean throughput (KOps/s, paper scale)",
		Header: []string{"engine / clients"},
	}
	for _, shards := range shardSweepShards {
		tput.Header = append(tput.Header, fmt.Sprintf("%d shards", shards))
	}
	lat := Table{
		Title:  "p99 operation latency (paper scale)",
		Header: append([]string(nil), tput.Header...),
	}
	cell := 0
	for _, eng := range engines {
		for _, clients := range shardSweepClients {
			label := fmt.Sprintf("%s, %d clients", engineName(eng), clients)
			s := Series{Name: label, XLabel: "shards", YLabel: "KOps/s"}
			tr := []string{label}
			lr := []string{label}
			for _, shards := range shardSweepShards {
				res := results[cell]
				cell++
				if res.OutOfSpace {
					rep.Notes = append(rep.Notes, fmt.Sprintf("%s at %d shards ran out of space", label, shards))
					tr = append(tr, "OOS")
					lr = append(lr, "OOS")
					continue
				}
				kops := res.MeanScaledKOps()
				s.X = append(s.X, float64(shards))
				s.Y = append(s.Y, kops)
				tr = append(tr, fmt.Sprintf("%.2f", kops))
				lr = append(lr, res.Latency.P99.String())
			}
			rep.Series = append(rep.Series, s)
			tput.Rows = append(tput.Rows, tr)
			lat.Rows = append(lat.Rows, lr)
		}
	}
	rep.Tables = []Table{tput, lat}
	return rep, nil
}

// replSweepReplicas and replSweepModes span the replication grid: the
// factors worth paying for (beyond 3 the ack chain just gets longer)
// and both disciplines. The unreplicated point anchors both series.
var (
	replSweepReplicas = []int{1, 2, 3}
	replSweepModes    = []string{"chain", "quorum"}
)

// FigReplSweep (extension) measures what replication costs: every
// shard becomes a replica group of R complete engine stacks
// (internal/replica), writes replicate before acknowledging — down the
// chain in chain mode, to a majority in quorum mode — so logical
// throughput can only fall with R while physical write traffic and
// footprint multiply by it. The sweep pins those three curves for both
// disciplines under the same deterministic simulation as the paper's
// figures.
func FigReplSweep(o Options) (*Report, error) {
	rep := &Report{
		ID: "replsweep",
		Caption: "The cost of replication: acks wait for the chain or the " +
			"quorum, so throughput and tail latency pay for the " +
			"R-fold physical redundancy",
	}
	engines := o.engines([]core.EngineKind{core.LSM})
	// One R=1 anchor cell per engine, then one cell per (mode, R>1):
	// both disciplines are identical at R=1, so it runs once.
	cellSpec := func(eng core.EngineKind, mode string, replicas int) core.Spec {
		spec := baseSpec(o, eng, core.Trimmed)
		if replicas == 1 {
			spec.Name = fmt.Sprintf("%v-r1", eng)
		} else {
			spec.Name = fmt.Sprintf("%v-%s-r%d", eng, mode, replicas)
		}
		spec.Scale = o.scale(2048)
		spec.ReadFraction = 0.5
		spec.Shards = 2
		spec.Clients = 8
		spec.Replicas = replicas
		spec.ReplMode = mode
		spec.Duration = o.duration(60 * time.Minute)
		return spec
	}
	var specs []core.Spec
	for _, eng := range engines {
		specs = append(specs, cellSpec(eng, "", 1))
		for _, mode := range replSweepModes {
			for _, replicas := range replSweepReplicas[1:] {
				specs = append(specs, cellSpec(eng, mode, replicas))
			}
		}
	}
	results, err := core.RunGrid(specs, 0)
	if err != nil {
		return nil, fmt.Errorf("replsweep: %w", err)
	}
	tput := Table{
		Title:  "Mean throughput (KOps/s, paper scale)",
		Header: []string{"engine / mode"},
	}
	for _, replicas := range replSweepReplicas {
		tput.Header = append(tput.Header, fmt.Sprintf("R=%d", replicas))
	}
	lat := Table{
		Title:  "p99 operation latency (paper scale)",
		Header: append([]string(nil), tput.Header...),
	}
	foot := Table{
		Title:  "Max footprint (MiB, all replicas)",
		Header: append([]string(nil), tput.Header...),
	}
	cell := 0
	for _, eng := range engines {
		anchor := results[cell]
		cell++
		for _, mode := range replSweepModes {
			label := fmt.Sprintf("%s, %s", engineName(eng), mode)
			s := Series{Name: label, XLabel: "replicas", YLabel: "KOps/s"}
			tr := []string{label}
			lr := []string{label}
			fr := []string{label}
			for _, replicas := range replSweepReplicas {
				res := anchor
				if replicas > 1 {
					res = results[cell]
					cell++
				}
				if res.OutOfSpace {
					rep.Notes = append(rep.Notes, fmt.Sprintf("%s at R=%d ran out of space", label, replicas))
					tr = append(tr, "OOS")
					lr = append(lr, "OOS")
					fr = append(fr, "OOS")
					continue
				}
				kops := res.MeanScaledKOps()
				s.X = append(s.X, float64(replicas))
				s.Y = append(s.Y, kops)
				tr = append(tr, fmt.Sprintf("%.2f", kops))
				lr = append(lr, res.Latency.P99.String())
				fr = append(fr, fmt.Sprintf("%.1f", float64(res.Steady.DiskUsedBytes)/(1<<20)))
			}
			rep.Series = append(rep.Series, s)
			tput.Rows = append(tput.Rows, tr)
			lat.Rows = append(lat.Rows, lr)
			foot.Rows = append(foot.Rows, fr)
		}
	}
	rep.Tables = []Table{tput, lat, foot}
	return rep, nil
}

func sqrtF(x float64) float64 { return math.Sqrt(x) }

func ssd2Profile() flash.Profile { return flash.ProfileSSD2() }
func ssd3Profile() flash.Profile { return flash.ProfileSSD3() }
