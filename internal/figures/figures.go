// Package figures regenerates every table and figure of the paper's
// evaluation section (§4). A figure is a value in the figures list: an
// edit of the paper's default experiment, the axes it varies and one of
// two layouts of the results. (*figure).run expands that grid, runs it
// through internal/core at the requested scale and returns a Report
// with the same series and rows the paper plots; README "Adding a
// figure" describes the parts.
package figures

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
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
		return core.QuickDuration(def)
	}
	return def
}

func (o Options) seed() uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 1
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

// Run regenerates the figure with the given ID.
func Run(id string, o Options) (*Report, error) {
	for _, f := range figures {
		if f.id == id {
			return f.run(o)
		}
	}
	return nil, fmt.Errorf("ptsbench: unknown figure %q (have %v)", id, IDs())
}

// IDs lists the figure identifiers in paper order, followed by the
// extension figures.
func IDs() []string {
	ids := make([]string, len(figures))
	for i, f := range figures {
		ids[i] = f.id
	}
	return ids
}

// figure describes one figure as data: which experiments to run and how
// to lay their results out.
type figure struct {
	id      string
	caption string
	// edit turns the paper's default cell (defaultSpec) into this
	// figure's; nil keeps it.
	edit func(s *core.Spec)
	// fixed is set by a figure that studies one engine (its edit names
	// it) instead of having an engine axis: the clause, after the id,
	// of the note that tells a user why -engine is ignored.
	fixed string
	// axes span the grid; cells expand row-major, last axis fastest.
	axes   []axis
	layout layout
	// finish adds what neither layout expresses.
	finish func(rep *Report, cells []cell) error
}

// axis is one dimension of a figure's grid.
type axis struct {
	// labels name each value wherever a cell name, a row label or a
	// column header shows it.
	labels []string
	// x positions each value along a curve; only the last axis of a
	// pivot with curves needs it.
	x []float64
	// set applies value i to a cell's spec.
	set func(s *core.Spec, i int)
	// engine marks the engine axis, whose values the -engine override
	// replaces.
	engine bool
}

// engines is the engine axis over kinds.
func engines(kinds ...core.EngineKind) axis {
	a := axis{engine: true, set: func(s *core.Spec, i int) { s.Engine = kinds[i] }}
	for _, k := range kinds {
		a.labels = append(a.labels, engineName(k))
	}
	return a
}

// sweep is a numeric axis: format labels a value, and the value is its
// own position along a curve.
func sweep[T int | float64](format string, set func(*core.Spec, T), values ...T) axis {
	a := axis{set: func(s *core.Spec, i int) { set(s, values[i]) }}
	for _, v := range values {
		a.labels = append(a.labels, fmt.Sprintf(format, v))
		a.x = append(a.x, float64(v))
	}
	return a
}

// cell is one point of the grid.
type cell struct {
	// labels holds the label of the cell's value on every axis.
	labels []string
	// run indexes the cell's spec among the distinct specs of the grid.
	run int
	res *core.Result
}

// windowSamples is how many 10s samples form the paper's 10-minute
// reporting window.
const windowSamples = 60

// defaultSpec returns the paper's default experiment (§3.2, §3.5) on a
// trimmed drive; the engine comes from a figure's axis or edit.
func defaultSpec() core.Spec {
	return core.Spec{
		Device:          core.DefaultDevice(),
		Scale:           128,
		DatasetFraction: 0.5,
		ValueBytes:      4000,
		Duration:        210 * time.Minute,
		SampleEvery:     10 * time.Second,
	}
}

// plan resolves the figure against o and expands its grid: the report
// so far, the axes with the -engine override applied, the cells in
// row-major order and the distinct specs they run.
func (f *figure) plan(o Options) (*Report, []axis, []cell, []core.Spec) {
	rep := &Report{ID: f.id, Caption: f.caption}
	base := defaultSpec()
	if f.edit != nil {
		f.edit(&base)
	}
	axes := append([]axis(nil), f.axes...)
	for i, a := range axes {
		if a.engine && len(o.Engines) > 0 {
			axes[i] = engines(o.Engines...)
		}
	}
	if f.fixed != "" && len(o.Engines) > 0 && !(len(o.Engines) == 1 && o.Engines[0] == base.Engine) {
		rep.Notes = append(rep.Notes, fmt.Sprintf("%s %s; the -engine override is ignored", f.id, f.fixed))
	}
	n := 1
	for _, a := range axes {
		n *= len(a.labels)
	}
	cells := make([]cell, n)
	var specs []core.Spec
	for ci := range cells {
		c := &cells[ci]
		spec := base
		stride := n
		for _, a := range axes {
			stride /= len(a.labels)
			v := ci / stride % len(a.labels)
			c.labels = append(c.labels, a.labels[v])
			a.set(&spec, v)
		}
		spec.Scale = o.scale(spec.Scale)
		spec.Duration = o.duration(spec.Duration)
		spec.Seed = o.seed()
		// Cells whose specs are identical share one run: replsweep's
		// R=1 column is the same unreplicated cell under both modes.
		for c.run = 0; c.run < len(specs); c.run++ {
			spec.Name = specs[c.run].Name
			if reflect.DeepEqual(specs[c.run], spec) {
				break
			}
		}
		if c.run == len(specs) {
			spec.Name = f.id + " " + strings.Join(c.labels, "/")
			specs = append(specs, spec)
		}
	}
	return rep, axes, cells, specs
}

// run regenerates the figure. The distinct cells execute concurrently
// via core.RunGrid (which is documented to return bit-identical Results
// to sequential Run calls), so a figure's wall-clock cost is its slowest
// cell, not the sum of cells.
func (f *figure) run(o Options) (*Report, error) {
	rep, axes, cells, specs := f.plan(o)
	results, err := core.RunGrid(specs, 0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", f.id, err)
	}
	for i := range cells {
		cells[i].res = results[cells[i].run]
	}
	f.layout(rep, axes[len(axes)-1], cells)
	if f.finish != nil {
		if err := f.finish(rep, cells); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// layout turns a grid's results into the report's series and tables;
// cols is the grid's last axis. Both layouts apply the one out-of-space
// rule: a cell that ran out of space reads "OOS" wherever it has a table
// cell, and adds a "… ran out of space" note wherever it drops a series
// or a curve point.
type layout func(rep *Report, cols axis, cells []cell)

// labelf applies a name format to axis labels.
func labelf(f string, labels []string) string {
	args := make([]any, len(labels))
	for i, l := range labels {
		args[i] = l
	}
	return fmt.Sprintf(f, args...)
}

// seriesFn and tableFn extract one curve or one table from a cell's
// result, titled with the cell's name.
type (
	seriesFn func(name string, res *core.Result) Series
	tableFn  func(name string, res *core.Result) Table
)

// perCell is the layout of the figures that plot every cell on its own:
// each cell emits its series and tables under a name formatted from its
// axis labels.
func perCell(name string, series []seriesFn, tables ...tableFn) layout {
	return func(rep *Report, _ axis, cells []cell) {
		for _, c := range cells {
			if c.res.OutOfSpace {
				rep.Notes = append(rep.Notes, strings.Join(c.labels, " ")+" ran out of space")
				continue
			}
			n := labelf(name, c.labels)
			for _, s := range series {
				rep.Series = append(rep.Series, s(n, c.res))
			}
			for _, t := range tables {
				rep.Tables = append(rep.Tables, t(n, c.res))
			}
		}
	}
}

// metric is one table of a pivot and, when it has a y label, one curve
// per row of that table.
type metric struct {
	title string
	text  func(*core.Result) string
	y     func(*core.Result) float64
	// suffix after the row label names the metric's curve.
	suffix, ylabel string
}

// number is a numeric metric printed with format.
func number(title, format string, y func(*core.Result) float64) metric {
	return metric{title: title, y: y, text: func(r *core.Result) string { return fmt.Sprintf(format, y(r)) }}
}

// curve also plots the metric along the last axis.
func (m metric) curve(suffix, ylabel string) metric {
	m.suffix, m.ylabel = suffix, ylabel
	return m
}

// pivot is the layout of the figures that compare steady-state numbers
// across a sweep: the leading axes run down the rows (row formats their
// labels, under the corner header), the last axis across the columns,
// with one table per metric and, for a metric with a curve, one series
// per row along the last axis (xlabel names it).
func pivot(corner, row, xlabel string, metrics ...metric) layout {
	return func(rep *Report, cols axis, cells []cell) {
		first := len(rep.Tables)
		curved := false
		for _, m := range metrics {
			rep.Tables = append(rep.Tables, Table{Title: m.title, Header: append([]string{corner}, cols.labels...)})
			curved = curved || m.ylabel != ""
		}
		tables := rep.Tables[first:]
		for ; len(cells) > 0; cells = cells[len(cols.labels):] {
			lead := cells[0].labels
			label := labelf(row, lead[:len(lead)-1])
			rows := make([][]string, len(metrics))
			curves := make([]Series, len(metrics))
			for i, m := range metrics {
				rows[i] = []string{label}
				curves[i] = Series{Name: label + m.suffix, XLabel: xlabel, YLabel: m.ylabel}
			}
			for col, c := range cells[:len(cols.labels)] {
				if c.res.OutOfSpace {
					for i := range rows {
						rows[i] = append(rows[i], "OOS")
					}
					if curved {
						rep.Notes = append(rep.Notes, label+" "+cols.labels[col]+" ran out of space")
					}
					continue
				}
				for i, m := range metrics {
					rows[i] = append(rows[i], m.text(c.res))
					if m.ylabel != "" {
						curves[i].X = append(curves[i].X, cols.x[col])
						curves[i].Y = append(curves[i].Y, m.y(c.res))
					}
				}
			}
			for i, m := range metrics {
				tables[i].Rows = append(tables[i].Rows, rows[i])
				if m.ylabel != "" {
					rep.Series = append(rep.Series, curves[i])
				}
			}
		}
	}
}

// engineName is how figures title an engine: the paper's name for the
// built-ins, the registry name for any other registered driver.
func engineName(k core.EngineKind) string {
	switch k {
	case core.LSM:
		return "RocksDB-like LSM"
	case core.BTree:
		return "WiredTiger-like B+Tree"
	case core.Betree:
		return "Be-tree (buffered)"
	default:
		return k.String()
	}
}

// bothEngines is the engine pair of the paper's own evaluation; the
// dataset-size / over-provisioning / cost-model figures keep it as
// their default so they reproduce the paper's two-way comparisons.
var bothEngines = engines(core.LSM, core.BTree)

// allEngines adds the Bε-tree: the workload-generic figures (steady
// state, initial state, LBA coverage, SSD types, workload variants,
// queue-depth sweep) run all three tree structures by default.
var allEngines = engines(core.LSM, core.BTree, core.Betree)

// initialStates is the drive-state axis of §4.2.
var initialStates = axis{
	labels: []string{core.Trimmed.String(), core.Preconditioned.String()},
	set: func(s *core.Spec, i int) {
		s.Initial = []core.InitialState{core.Trimmed, core.Preconditioned}[i]
	},
}

// extraOP is the software over-provisioning axis of §4.6: the whole
// drive, or a 300 GB partition with 100 GB kept trimmed.
var extraOP = axis{
	labels: []string{"No OP", "Extra OP"},
	set:    func(s *core.Spec, i int) { s.PartitionFraction = []float64{1.0, 0.75}[i] },
}

// ssdTypes is the axis over the three SSDs of §4.7.
var ssdTypes = axis{
	labels: []string{"SSD1", "SSD2", "SSD3"},
	set: func(s *core.Spec, i int) {
		s.Device.Profile = []flash.Profile{flash.ProfileSSD1(), flash.ProfileSSD2(), flash.ProfileSSD3()}[i]
	},
}

func datasetFraction(s *core.Spec, f float64) { s.DatasetFraction = f }

// smallDataset is the cell of §4.7: a 10x smaller dataset than the
// default 0.5 (and a trimmed device) so GC effects are minimized and
// the SSD type is what differs.
func smallDataset(s *core.Spec) {
	s.DatasetFraction = 0.05
	s.Duration = 90 * time.Minute
}

// The steady-state numbers the pivots tabulate.
var (
	throughputKOps = number("Throughput (KOps/s)", "%.2f", func(r *core.Result) float64 { return r.ScaledKOps })
	steadyWAD      = number("WA-D", "%.2f", func(r *core.Result) float64 { return r.Steady.WAD })
	meanThroughput = number("Mean throughput (KOps/s, paper scale)", "%.2f", (*core.Result).MeanScaledKOps).curve("", "KOps/s")
)

func steadyWAA(format string) metric {
	return number("WA-A", format, func(r *core.Result) float64 { return r.Steady.WAA })
}

func p99Latency(title string) metric {
	return metric{title: title, text: func(r *core.Result) string { return r.Latency.P99.String() }}
}

// scaled re-normalizes a measured rate curve to paper scale.
func scaled(v []float64, res *core.Result) []float64 {
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] * float64(res.Spec.Scale)
	}
	return out
}

// throughput extracts the KOps curve, averaged over window samples, as
// the series name+suffix.
func throughput(suffix string, window int) seriesFn {
	return func(name string, res *core.Result) Series {
		t, kops := res.Series.ThroughputSeries(window)
		return Series{Name: name + suffix, XLabel: "time (min)", YLabel: "KOps/s", X: t, Y: scaled(kops, res)}
	}
}

func deviceWrites(name string, res *core.Result) Series {
	t, w, _ := res.Series.RateSeries(windowSamples)
	return Series{Name: name + " device writes", XLabel: "time (min)", YLabel: "MB/s", X: t, Y: scaled(w, res)}
}

func waA(name string, res *core.Result) Series {
	t, waa, _ := res.Series.WASeries(windowSamples)
	return Series{Name: name + " WA-A", XLabel: "time (min)", YLabel: "WA-A", X: t, Y: waa}
}

func waD(name string, res *core.Result) Series {
	t, _, wad := res.Series.WASeries(windowSamples)
	return Series{Name: name + " WA-D", XLabel: "time (min)", YLabel: "WA-D", X: t, Y: wad}
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

// lbaCDF is the CDF of per-LBA write counts with LBAs sorted by
// decreasing write count.
func lbaCDF(name string, res *core.Result) Series {
	x := make([]float64, len(res.LBACDF))
	for i := range x {
		x[i] = float64(i) / float64(len(x)-1)
	}
	return Series{
		Name:   name,
		XLabel: "LBA (normalized, sorted by decreasing writes)",
		YLabel: "CDF",
		X:      x,
		Y:      res.LBACDF,
	}
}

func lbaCoverage(name string, res *core.Result) Table {
	return Table{
		Title:  name + " LBA coverage",
		Header: []string{"metric", "value"},
		Rows: [][]string{
			{"fraction of LBAs written", fmt.Sprintf("%.2f", res.FracLBAs)},
			{"fraction never written", fmt.Sprintf("%.2f", 1-res.FracLBAs)},
		},
	}
}

// oneMinuteWindow is 6 x 10s samples.
const oneMinuteWindow = 6

// variabilityTable summarizes throughput swings over 1-minute windows.
func variabilityTable(name string, res *core.Result) Table {
	_, kops := res.Series.ThroughputSeries(oneMinuteWindow)
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
		cv = math.Sqrt(ss/float64(len(kops))) / mean
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

// costHeatmap is the finish hook of the storage-cost figures
// (§4.5–4.6). Every cell measured at the paper's default dataset
// fraction is one provisioning option, named by its first axis label —
// like the paper's use of its Fig 5a/6a measurements — and the heatmap
// says which needs fewer drives for 1–5 TB at 5–25 KOps/s. A cell that
// ran out of space has no measurement to offer.
func costHeatmap(title string) func(*Report, []cell) error {
	return func(rep *Report, cells []cell) error {
		var options []costmodel.Option
		for _, c := range cells {
			spec := c.res.Spec
			if c.res.OutOfSpace || spec.DatasetFraction != 0.5 {
				continue
			}
			options = append(options, costmodel.Option{
				Name:           c.labels[0],
				ThroughputKOps: c.res.ScaledKOps,
				// With extra OP only PartitionFraction of the drive is usable.
				MaxDatasetBytes: float64(spec.Device.CapacityBytes) * spec.PartitionFraction / c.res.SpaceAmp,
			})
		}
		if len(options) < 2 {
			return nil // nothing to compare
		}
		heat, err := costmodel.Compute(options,
			[]float64{1 << 40, 2 << 40, 3 << 40, 4 << 40, 5 << 40},
			[]float64{5, 10, 15, 20, 25})
		if err != nil {
			return err
		}
		t := Table{Title: title, Header: []string{"target \\ dataset"}}
		for _, d := range heat.Datasets {
			t.Header = append(t.Header, fmt.Sprintf("%.0fTB", d/(1<<40)))
		}
		for ti := len(heat.Targets) - 1; ti >= 0; ti-- {
			row := []string{fmt.Sprintf("%.0f KOps", heat.Targets[ti])}
			for di := range heat.Datasets {
				row = append(row, heat.Cells[ti][di].Winner)
			}
			t.Rows = append(t.Rows, row)
		}
		rep.Tables = append(rep.Tables, t)
		return nil
	}
}

// figures lists every figure in paper order, followed by the extension
// figures.
var figures = []*figure{
	{
		// Figure 2: KV and device throughput, WA-A and WA-D over time
		// for every engine on a trimmed SSD.
		id: "fig2",
		caption: "Steady state vs bursty performance on a trimmed SSD: " +
			"KV throughput, device write throughput, WA-A and WA-D over time",
		axes: []axis{allEngines},
		layout: perCell("%s",
			[]seriesFn{throughput(" throughput", windowSamples), deviceWrites, waA, waD},
			steadyTable),
	},
	{
		// Figure 3: throughput and WA-D over time, trimmed versus
		// preconditioned initial device state.
		id: "fig3",
		caption: "Impact of the initial state of the SSD (trimmed vs " +
			"preconditioned) on throughput and WA-D over time",
		axes: []axis{allEngines, initialStates},
		layout: perCell("%s (%s)",
			[]seriesFn{throughput(" throughput", windowSamples), waD},
			steadyTable),
	},
	{
		// Figure 4: the CDF of per-LBA write counts on the default
		// workload.
		id: "fig4",
		caption: "CDF of LBA write probability (LBAs sorted by decreasing " +
			"write count); WiredTiger leaves a large fraction of the LBA " +
			"space unwritten",
		axes:   []axis{allEngines},
		layout: perCell("%s", []seriesFn{lbaCDF}, lbaCoverage),
	},
	{
		// Figure 5: steady-state throughput, WA-D and WA-A as a function
		// of the dataset-to-capacity ratio, trimmed and preconditioned.
		id:      "fig5",
		caption: "Impact of dataset size: steady-state throughput, WA-D and WA-A",
		edit:    func(s *core.Spec) { s.Duration = 150 * time.Minute },
		axes:    []axis{bothEngines, initialStates, sweep("%.2f", datasetFraction, 0.25, 0.37, 0.5, 0.62)},
		layout:  pivot("config", "%s %s", "", throughputKOps, steadyWAD, steadyWAA("%.1f")),
	},
	{
		// Figure 6: disk utilization, space amplification, and the
		// storage-cost heatmap. The sweep extends Figure 5's to the
		// sizes where RocksDB runs out of space in the paper.
		id:      "fig6",
		caption: "Space amplification and its effect on storage cost",
		edit: func(s *core.Spec) {
			s.Initial = core.Preconditioned
			s.Duration = 120 * time.Minute
		},
		axes: []axis{bothEngines, sweep("%.2f", datasetFraction, 0.25, 0.37, 0.5, 0.62, 0.75, 0.88)},
		layout: pivot("config", "%s", "",
			number("Disk utilization (%)", "%.0f", func(r *core.Result) float64 { return r.DiskUtilPct }),
			number("Space amplification", "%.2f", func(r *core.Result) float64 { return r.SpaceAmp })),
		finish: costHeatmap("Cheaper system (fewer drives)"),
	},
	{
		// Figure 7: the effect of software over-provisioning on
		// throughput and WA-D.
		id:      "fig7",
		caption: "Impact of extra SSD over-provisioning (OP)",
		edit:    func(s *core.Spec) { s.Duration = 150 * time.Minute },
		axes:    []axis{bothEngines, initialStates, extraOP},
		layout:  pivot("config", "%s %s", "", throughputKOps, steadyWAD),
	},
	{
		// Figure 8: the storage-cost heatmap comparing RocksDB with and
		// without extra over-provisioning on a preconditioned SSD. The
		// cells plot nothing themselves; they are the heatmap's options.
		id:      "fig8",
		caption: "Storage cost of RocksDB with vs without extra OP (preconditioned)",
		edit: func(s *core.Spec) {
			s.Engine = core.LSM
			s.Initial = core.Preconditioned
			s.Duration = 150 * time.Minute
		},
		fixed:  "is an LSM-specific over-provisioning study",
		axes:   []axis{extraOP},
		layout: perCell("%s", nil),
		finish: costHeatmap("Cheaper RocksDB configuration"),
	},
	{
		// Figure 9: steady throughput across the three SSD types.
		id:      "fig9",
		caption: "Impact of SSD type on throughput (small dataset, trimmed)",
		edit:    smallDataset,
		axes:    []axis{allEngines, ssdTypes},
		layout:  pivot("engine", "%s", "", throughputKOps),
	},
	{
		// Figure 10: throughput over time (1-minute averages) across the
		// three SSD types, showing per-device variability.
		id:      "fig10",
		caption: "Throughput variability (1-minute averages) per SSD type",
		edit:    smallDataset,
		axes:    []axis{allEngines, ssdTypes},
		layout:  perCell("%s %s", []seriesFn{throughput("", oneMinuteWindow)}, variabilityTable),
	},
	{
		// Figure 11: the pitfalls under two workload variants, on
		// trimmed and preconditioned devices.
		id:      "fig11",
		caption: "Additional workloads: 50:50 read:write mix and 128-byte values",
		axes: []axis{
			{
				labels: []string{"50:50", "128B"},
				set: func(s *core.Spec, i int) {
					if i == 0 {
						// 50:50 mix at the default scale.
						s.ReadFraction = 0.5
					} else {
						// 128-byte values at a larger scale (more keys per byte).
						s.Scale = 512
						s.ValueBytes = 128
					}
				},
			},
			allEngines,
			initialStates,
		},
		layout: perCell("%[2]s %[1]s (%[3]s)", []seriesFn{throughput(" throughput", windowSamples), waD}),
	},
	{
		// qdsweep goes beyond the paper: it sweeps host queue depth on
		// an SSD with 4 channels × 4 ways of internal parallelism and a
		// read-heavy (95:5) workload, showing throughput growing with
		// queue depth until the lane array saturates — the effect Didona
		// et al. flag as missing from queue-depth-1 evaluations and Roh
		// et al. exploit inside a B+Tree.
		//
		// Engine-internal QD usage differs by design: the LSM
		// additionally parallelizes the multi-table probes of a single
		// Get (ProbeParallelism), while the B+Tree and Bε-tree answer a
		// point read from at most one leaf — there is nothing inside one
		// lookup to overlap, so their curves reflect host-level read
		// batching alone (their PrefetchDepth/scan-side parallelism only
		// matters for range scans, which this workload does not issue).
		id: "qdsweep",
		caption: "Impact of host queue depth on a 4-channel x 4-way SSD " +
			"(read-heavy workload): throughput scales with I/O concurrency " +
			"until the internal lanes saturate",
		edit: func(s *core.Spec) {
			s.Device.Profile = s.Device.Profile.WithParallelism(4, 4)
			s.Scale = 512
			s.ReadFraction = 0.95
			s.Duration = 90 * time.Minute
		},
		axes: []axis{allEngines,
			sweep("QD %d", func(s *core.Spec, qd int) { s.QueueDepth = qd }, 1, 4, 16, 32)},
		layout: pivot("engine", "%s", "queue depth", meanThroughput, p99Latency("p99 read latency (paper scale)")),
		finish: func(rep *Report, cells []cell) error {
			p := cells[0].res.Spec.Device.Profile
			rep.Notes = append(rep.Notes, fmt.Sprintf("device: %d channels x %d ways (%d lanes)",
				p.Channels, p.Ways, p.ParallelLanes()))
			return nil
		},
	},
	{
		// betradeoff goes beyond the paper: it maps the Bε-tree's
		// three-way trade-off — throughput, application-level WA and
		// device-level WA — as the buffer fraction (ε) and the read
		// fraction vary. Small ε buys write batching (fewer, larger leaf
		// write-backs) at the cost of fanout (deeper tree); ε = 1 is the
		// degenerate B+Tree point (no buffering). The paper's
		// steady-state methodology applies unchanged: every cell is
		// measured over the tail of a long run on a trimmed device.
		id: "betradeoff",
		caption: "Be-tree trade-off: throughput, WA-A and WA-D vs buffer " +
			"fraction (ε) and read fraction (ε = 1 degenerates to a B+Tree)",
		edit: func(s *core.Spec) {
			s.Engine = core.Betree
			s.Duration = 120 * time.Minute
		},
		fixed: "sweeps the Bε-tree's ε knob",
		axes: []axis{
			{
				// Write-heavy, balanced, read-heavy.
				labels: []string{"reads 5%", "reads 50%", "reads 95%"},
				set:    func(s *core.Spec, i int) { s.ReadFraction = []float64{0.05, 0.5, 0.95}[i] },
			},
			sweep("ε=%.1f", func(s *core.Spec, eps float64) {
				// The ε override travels as a declarative tunable (the
				// spec stays serializable); 'g'/-1 formatting round-trips
				// the float64 exactly.
				s.Tunables = map[string]string{"epsilon": strconv.FormatFloat(eps, 'g', -1, 64)}
			}, 0.4, 0.6, 0.8, 1.0),
		},
		layout: pivot("read fraction", "%s", "ε",
			throughputKOps.curve(" throughput", "KOps/s"),
			steadyWAA("%.2f").curve(" WA-A", "WA-A"),
			steadyWAD.curve(" WA-D", "WA-D")),
	},
	{
		// shardsweep goes beyond the paper: it sweeps the sharded
		// serving layer (internal/store) over shard counts (across the
		// columns) and closed-loop client counts (down the rows) on the
		// default balanced workload. Each shard owns an independent
		// engine on its own slice of the device, so aggregate throughput
		// grows with shards as long as the clients supply enough
		// concurrent load, while per-op latency reflects FIFO queueing
		// on each shard — the classic partitioned-store trade-off,
		// measured under the same deterministic simulation as the
		// paper's figures.
		id: "shardsweep",
		caption: "Throughput and tail latency of the sharded serving layer: " +
			"shards scale aggregate service capacity; clients set the " +
			"offered closed-loop concurrency",
		edit: func(s *core.Spec) {
			s.Scale = 2048
			s.ReadFraction = 0.5
			s.Duration = 60 * time.Minute
		},
		axes: []axis{engines(core.LSM),
			sweep("%d clients", func(s *core.Spec, n int) { s.Clients = n }, 8, 16),
			sweep("%d shards", func(s *core.Spec, n int) { s.Shards = n }, 1, 2, 4, 8)},
		layout: pivot("engine / clients", "%s, %s", "shards",
			meanThroughput, p99Latency("p99 operation latency (paper scale)")),
	},
	{
		// replsweep goes beyond the paper: it measures what replication
		// costs. Every shard becomes a replica group of R complete
		// engine stacks (internal/replica), writes replicate before
		// acknowledging — down the chain in chain mode, to a majority in
		// quorum mode — so logical throughput can only fall with R while
		// physical write traffic and footprint multiply by it. The grid
		// pins those three curves over the factors worth paying for
		// (beyond 3 the ack chain just gets longer) and both
		// disciplines; the unreplicated cell has no discipline, so it
		// anchors both rows and runs once.
		id: "replsweep",
		caption: "The cost of replication: acks wait for the chain or the " +
			"quorum, so throughput and tail latency pay for the " +
			"R-fold physical redundancy",
		edit: func(s *core.Spec) {
			s.Scale = 2048
			s.ReadFraction = 0.5
			s.Shards = 2
			s.Clients = 8
			s.Duration = 60 * time.Minute
		},
		axes: []axis{engines(core.LSM),
			{
				labels: []string{"chain", "quorum"},
				set:    func(s *core.Spec, i int) { s.ReplMode = []string{"chain", "quorum"}[i] },
			},
			sweep("R=%d", func(s *core.Spec, r int) {
				s.Replicas = r
				if r == 1 {
					s.ReplMode = ""
				}
			}, 1, 2, 3)},
		layout: pivot("engine / mode", "%s, %s", "replicas",
			meanThroughput, p99Latency("p99 operation latency (paper scale)"),
			number("Max footprint (MiB, all replicas)", "%.1f",
				func(r *core.Result) float64 { return float64(r.Steady.DiskUsedBytes) / (1 << 20) })),
	},
}
