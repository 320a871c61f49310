package figures

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ptsbench/internal/core"
)

// fastOptions keep figure tests quick: coarse scale, short runs.
func fastOptions() Options {
	return Options{Quick: true, Scale: 1024, Seed: 1}
}

func TestFig2Structure(t *testing.T) {
	rep := fastReport(t, "fig2")
	if rep.ID != "fig2" {
		t.Fatalf("ID = %s", rep.ID)
	}
	// Three engines x (throughput, device writes, WA-A, WA-D).
	if len(rep.Series) != 12 {
		t.Fatalf("series count %d, want 12", len(rep.Series))
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("table count %d, want 3", len(rep.Tables))
	}
	for _, s := range rep.Series {
		if len(s.X) == 0 || len(s.X) != len(s.Y) {
			t.Fatalf("series %s malformed: %d/%d points", s.Name, len(s.X), len(s.Y))
		}
	}
}

func TestFig4WTConfined(t *testing.T) {
	rep := fastReport(t, "fig4")
	// The paper's headline for Fig 4: WiredTiger leaves a substantial
	// fraction of LBAs unwritten; RocksDB covers far more. The Bε-tree
	// writes through one collection file too, so it is also confined.
	frac := map[string]float64{}
	for _, tbl := range rep.Tables {
		for _, row := range tbl.Rows {
			if row[0] == "fraction of LBAs written" {
				v, err := strconv.ParseFloat(row[1], 64)
				if err != nil {
					t.Fatal(err)
				}
				frac[tbl.Title] = v
			}
		}
	}
	var lsmFrac, btFrac, beFrac float64
	for title, v := range frac {
		switch {
		case strings.Contains(title, "LSM"):
			lsmFrac = v
		case strings.Contains(title, "B+Tree"):
			btFrac = v
		case strings.Contains(title, "Be-tree"):
			beFrac = v
		}
	}
	if lsmFrac <= btFrac {
		t.Fatalf("LSM LBA coverage (%.2f) should exceed B+Tree's (%.2f)", lsmFrac, btFrac)
	}
	if btFrac > 0.7 {
		t.Fatalf("B+Tree coverage %.2f should be confined", btFrac)
	}
	if beFrac > 0.7 || beFrac <= 0 {
		t.Fatalf("Bε-tree coverage %.2f should be confined and nonzero", beFrac)
	}
	if lsmFrac <= beFrac {
		t.Fatalf("LSM LBA coverage (%.2f) should exceed the Bε-tree's (%.2f)", lsmFrac, beFrac)
	}
}

func TestFig9Shape(t *testing.T) {
	rep := fastReport(t, "fig9")
	tbl := rep.Tables[0]
	if len(tbl.Rows) != 3 || len(tbl.Rows[0]) != 4 {
		t.Fatalf("fig9 table malformed: %+v", tbl)
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	// Paper's qualitative structure (Fig 9): for the LSM, SSD3 (no GC, fast)
	// beats SSD1, and SSD2 (slow QLC backend) is the worst. For the
	// B+Tree, the SSD2 write cache absorbs its small writes, so SSD2
	// beats SSD1.
	lsm := tbl.Rows[0]
	bt := tbl.Rows[1]
	if !(parse(lsm[3]) > parse(lsm[1]) && parse(lsm[1]) > parse(lsm[2])) {
		t.Fatalf("LSM SSD ordering wrong: %v", lsm)
	}
	if !(parse(bt[2]) > parse(bt[1])) {
		t.Fatalf("B+Tree should be faster on SSD2 than SSD1: %v", bt)
	}
	if !(parse(bt[3]) > parse(bt[1])) {
		t.Fatalf("B+Tree should be fastest on SSD3: %v", bt)
	}
}

func TestRenderAndCSV(t *testing.T) {
	rep := fastReport(t, "fig4")
	var buf bytes.Buffer
	if err := rep.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fig4") || !strings.Contains(out, "CDF") {
		t.Fatalf("render missing headers:\n%s", out)
	}
	dir := t.TempDir()
	if err := rep.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(rep.Series)+len(rep.Tables) {
		t.Fatalf("CSV file count %d, want %d", len(files), len(rep.Series)+len(rep.Tables))
	}
	// Files parse as CSV with at least a header.
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Fatalf("empty CSV %s", f.Name())
		}
		if !strings.HasPrefix(f.Name(), "fig4_") || !strings.HasSuffix(f.Name(), ".csv") {
			t.Fatalf("bad CSV name %s", f.Name())
		}
	}
}

func TestCSVNameSanitization(t *testing.T) {
	got := csvName("fig2", "RocksDB-like LSM (trimmed) WA-D")
	if strings.ContainsAny(got, " ()") {
		t.Fatalf("unsafe csv name %q", got)
	}
	if !strings.HasPrefix(got, "fig2_") {
		t.Fatalf("missing prefix: %q", got)
	}
}

func TestSparkline(t *testing.T) {
	if s := sparkline(nil); s != "(empty)" {
		t.Fatalf("empty sparkline = %q", s)
	}
	s := sparkline([]float64{0, 1, 2, 3})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline length wrong: %q", s)
	}
	flat := sparkline([]float64{5, 5, 5})
	if len([]rune(flat)) != 3 {
		t.Fatalf("flat sparkline wrong: %q", flat)
	}
}

func TestOptionsHelpers(t *testing.T) {
	var o Options
	if o.scale(128) != 128 {
		t.Fatal("default scale")
	}
	o.Scale = 64
	if o.scale(128) != 64 {
		t.Fatal("override scale")
	}
	if o.seed() != 1 {
		t.Fatal("default seed")
	}
	o.Seed = 9
	if o.seed() != 9 {
		t.Fatal("override seed")
	}
}

func TestFig3InitialStateContrast(t *testing.T) {
	rep := fastReport(t, "fig3")
	// 3 engines x 2 states x (throughput + WA-D) series, 6 tables.
	if len(rep.Series) != 12 || len(rep.Tables) != 6 {
		t.Fatalf("fig3 shape: %d series, %d tables", len(rep.Series), len(rep.Tables))
	}
	// Pitfall #3 headline: B+Tree WA-D differs by initial state.
	wad := map[string]float64{}
	for _, tbl := range rep.Tables {
		for _, row := range tbl.Rows {
			if row[0] == "WA-D" {
				v, err := strconv.ParseFloat(row[1], 64)
				if err != nil {
					t.Fatal(err)
				}
				wad[tbl.Title] = v
			}
		}
	}
	var btTrim, btPrec float64
	for title, v := range wad {
		if strings.Contains(title, "B+Tree") {
			if strings.Contains(title, "precondition") {
				btPrec = v
			} else {
				btTrim = v
			}
		}
	}
	if btPrec <= btTrim {
		t.Fatalf("preconditioned B+Tree WA-D (%v) should exceed trimmed (%v)", btPrec, btTrim)
	}
}

func TestFig5Sweep(t *testing.T) {
	rep := fastReport(t, "fig5")
	if len(rep.Tables) != 3 {
		t.Fatalf("fig5 tables: %d", len(rep.Tables))
	}
	tput := rep.Tables[0]
	if len(tput.Rows) != 4 || len(tput.Rows[0]) != 5 {
		t.Fatalf("fig5 throughput table malformed: %+v", tput)
	}
	// LSM throughput declines with dataset size (pitfall #4).
	first, err := strconv.ParseFloat(tput.Rows[0][1], 64)
	if err != nil {
		t.Fatal(err)
	}
	last, err := strconv.ParseFloat(tput.Rows[0][4], 64)
	if err != nil {
		t.Fatal(err)
	}
	if last >= first {
		t.Fatalf("LSM throughput should decline with dataset size: %v -> %v", first, last)
	}
}

func TestFig7OPEffect(t *testing.T) {
	rep := fastReport(t, "fig7")
	wad := rep.Tables[1]
	// Row 1: LSM preconditioned; extra OP must lower WA-D.
	var lsmPrec []string
	for _, row := range wad.Rows {
		if strings.Contains(row[0], "LSM") && strings.Contains(row[0], "precondition") {
			lsmPrec = row
		}
	}
	if lsmPrec == nil {
		t.Fatalf("missing LSM preconditioned row: %+v", wad)
	}
	noOP, err1 := strconv.ParseFloat(lsmPrec[1], 64)
	withOP, err2 := strconv.ParseFloat(lsmPrec[2], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparseable cells: %v", lsmPrec)
	}
	if withOP >= noOP {
		t.Fatalf("extra OP should reduce LSM WA-D: %v -> %v", noOP, withOP)
	}
}

func TestFig6OOSAtLargeDatasets(t *testing.T) {
	rep := fastReport(t, "fig6")
	util := rep.Tables[0]
	lsmRow := util.Rows[0]
	// The paper's LSM cannot hold the largest dataset (0.88). At 0.75
	// the coarse quick-mode run may survive the shortened window, but
	// only while critically full.
	if lsmRow[6] != "OOS" {
		t.Fatalf("LSM should run out of space at 0.88: %v", lsmRow)
	}
	if lsmRow[5] != "OOS" {
		v, err := strconv.ParseFloat(lsmRow[5], 64)
		if err != nil || v < 90 {
			t.Fatalf("LSM at 0.75 should be OOS or critically full: %v", lsmRow)
		}
	}
	btRow := util.Rows[1]
	for i := 1; i < len(btRow); i++ {
		if btRow[i] == "OOS" {
			t.Fatalf("B+Tree should fit every dataset: %v", btRow)
		}
	}
}

func TestEngineOverrideRestrictsFigure(t *testing.T) {
	o := fastOptions()
	o.Engines = []core.EngineKind{core.Betree}
	rep, err := Run("fig2", o)
	if err != nil {
		t.Fatal(err)
	}
	// One engine x (throughput, device writes, WA-A, WA-D) + its table.
	if len(rep.Series) != 4 || len(rep.Tables) != 1 {
		t.Fatalf("restricted fig2 shape: %d series, %d tables", len(rep.Series), len(rep.Tables))
	}
	for _, s := range rep.Series {
		if !strings.Contains(s.Name, "Be-tree") {
			t.Fatalf("unexpected series %q for betree-only run", s.Name)
		}
	}
}

func TestFigBetradeoffShape(t *testing.T) {
	rep := fastReport(t, "betradeoff")
	if rep.ID != "betradeoff" {
		t.Fatalf("ID = %s", rep.ID)
	}
	// 3 read fractions x (throughput, WA-A, WA-D) series; 3 tables.
	if len(rep.Series) != 9 || len(rep.Tables) != 3 {
		t.Fatalf("betradeoff shape: %d series, %d tables", len(rep.Series), len(rep.Tables))
	}
	for _, s := range rep.Series {
		if len(s.X) != 4 {
			t.Fatalf("series %s has %d points, want 4 (one per ε)", s.Name, len(s.X))
		}
	}
	parse := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatalf("bad cell %q", s)
		}
		return v
	}
	// The design-space headline on the write-heavy mix: the buffered end
	// (smallest ε) must beat the degenerate B+Tree end (ε = 1) on both
	// throughput and application-level write amplification.
	tput, waa := rep.Tables[0], rep.Tables[1]
	writeHeavy := tput.Rows[0]
	last := len(writeHeavy) - 1
	if parse(writeHeavy[1]) <= parse(writeHeavy[last]) {
		t.Fatalf("buffered ε should out-write ε=1: %v", writeHeavy)
	}
	waaRow := waa.Rows[0]
	if parse(waaRow[1]) >= parse(waaRow[last]) {
		t.Fatalf("buffered ε should have lower WA-A than ε=1: %v", waaRow)
	}
}

func TestFigQDSweepMonotone(t *testing.T) {
	rep := fastReport(t, "qdsweep")
	if rep.ID != "qdsweep" {
		t.Fatalf("ID = %s", rep.ID)
	}
	if len(rep.Series) != 3 {
		t.Fatalf("series count %d, want 3 (one per engine)", len(rep.Series))
	}
	for _, s := range rep.Series {
		if len(s.Y) != 4 {
			t.Fatalf("%s: %d points, want 4 (one per queue depth)", s.Name, len(s.Y))
		}
		// Throughput must be non-decreasing up to the 16-lane saturation
		// point (QD 1, 4, 16).
		for i := 1; i < 3; i++ {
			if s.Y[i] < s.Y[i-1] {
				t.Fatalf("%s: throughput fell from QD %v (%.2f) to QD %v (%.2f)",
					s.Name, s.X[i-1], s.Y[i-1], s.X[i], s.Y[i])
			}
		}
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("tables %d, want 2", len(rep.Tables))
	}
}

func TestFigShardSweepScales(t *testing.T) {
	o := fastOptions()
	o.Scale = 4096
	rep, err := Run("shardsweep", o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "shardsweep" {
		t.Fatalf("ID = %s", rep.ID)
	}
	if len(rep.Series) != 2 {
		t.Fatalf("series count %d, want 2 (one per client count)", len(rep.Series))
	}
	for _, s := range rep.Series {
		if len(s.Y) != 4 {
			t.Fatalf("%s: %d points, want 4 (one per shard count)", s.Name, len(s.Y))
		}
		// The scaling claim the figure exists to demonstrate: with
		// enough clients, many shards out-serve one shard.
		last := len(s.Y) - 1
		if s.Y[last] <= s.Y[0] {
			t.Fatalf("%s: %v shards (%.2f kops) did not out-serve %v shard (%.2f kops)",
				s.Name, s.X[last], s.Y[last], s.X[0], s.Y[0])
		}
	}
	if len(rep.Tables) != 2 {
		t.Fatalf("tables %d, want 2 (throughput + p99)", len(rep.Tables))
	}
}

func TestFigReplSweepCosts(t *testing.T) {
	o := fastOptions()
	o.Scale = 4096
	rep, err := Run("replsweep", o)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "replsweep" {
		t.Fatalf("ID = %s", rep.ID)
	}
	if len(rep.Series) != 2 {
		t.Fatalf("series count %d, want 2 (one per mode)", len(rep.Series))
	}
	for _, s := range rep.Series {
		if len(s.Y) != 3 {
			t.Fatalf("%s: %d points, want 3 (one per replication factor)", s.Name, len(s.Y))
		}
		// Both modes anchor on the same unreplicated cell.
		if s.X[0] != 1 || s.Y[0] != rep.Series[0].Y[0] {
			t.Fatalf("%s: R=1 anchor differs across modes: %v", s.Name, s.Y[0])
		}
		// The cost claim the figure exists to demonstrate: acks wait
		// for replication, so R>1 never beats the unreplicated rate.
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] > s.Y[0]*1.05 {
				t.Fatalf("%s: R=%v (%.2f kops) beats unreplicated (%.2f kops)",
					s.Name, s.X[i], s.Y[i], s.Y[0])
			}
		}
	}
	if len(rep.Tables) != 3 {
		t.Fatalf("tables %d, want 3 (throughput + p99 + footprint)", len(rep.Tables))
	}
}

// TestEngineName: the built-ins carry the paper's names; any other
// registered driver is titled by its registry name, not as the B+Tree.
func TestEngineName(t *testing.T) {
	for _, tc := range []struct {
		kind core.EngineKind
		want string
	}{
		{core.LSM, "RocksDB-like LSM"},
		{core.BTree, "WiredTiger-like B+Tree"},
		{core.Betree, "Be-tree (buffered)"},
		{"fractal", "fractal"},
	} {
		if got := engineName(tc.kind); got != tc.want {
			t.Errorf("engineName(%q) = %q, want %q", tc.kind, got, tc.want)
		}
	}
}

// layoutFigure is a 2 x 3 grid for the layout tests, which feed the
// layouts synthetic results instead of simulating: cell (row i, column
// j) measured i*10+j KOps/s, and the cells in oos ran out of space.
func layoutFigure(l layout, oos ...int) *Report {
	f := &figure{
		id: "t",
		axes: []axis{
			{labels: []string{"a", "b"}, set: func(*core.Spec, int) {}},
			sweep("x=%d", func(s *core.Spec, v int) { s.QueueDepth = v }, 1, 2, 4),
		},
	}
	rep, axes, cells, _ := f.plan(Options{})
	for i := range cells {
		cells[i].res = &core.Result{ScaledKOps: float64(i/3*10 + i%3)}
	}
	for _, i := range oos {
		cells[i].res.OutOfSpace = true
	}
	l(rep, axes[1], cells)
	return rep
}

func kopsSeries(name string, res *core.Result) Series {
	return Series{Name: name, Y: []float64{res.ScaledKOps}}
}

func kopsTable(name string, res *core.Result) Table { return Table{Title: name} }

// TestPerCellLayout: every cell emits under its formatted name; a cell
// that ran out of space emits nothing and leaves one note.
func TestPerCellLayout(t *testing.T) {
	rep := layoutFigure(perCell("%s (%s)", []seriesFn{kopsSeries}, kopsTable), 4)
	if len(rep.Series) != 5 || len(rep.Tables) != 5 {
		t.Fatalf("5 of 6 cells should emit: %d series, %d tables", len(rep.Series), len(rep.Tables))
	}
	if rep.Series[0].Name != "a (x=1)" || rep.Series[4].Name != "b (x=4)" || rep.Tables[3].Title != "b (x=1)" {
		t.Fatalf("cell names: %q %q %q", rep.Series[0].Name, rep.Series[4].Name, rep.Tables[3].Title)
	}
	if len(rep.Notes) != 1 || rep.Notes[0] != "b x=2 ran out of space" {
		t.Fatalf("notes: %q", rep.Notes)
	}
}

// TestPivotLayout: rows down the leading axis, the last axis across the
// columns; an out-of-space cell reads OOS in every table and is noted
// only where it costs a curve its point.
func TestPivotLayout(t *testing.T) {
	kops := number("KOps", "%.0f", func(r *core.Result) float64 { return r.ScaledKOps })
	twice := number("2x", "%.1f", func(r *core.Result) float64 { return 2 * r.ScaledKOps })

	rep := layoutFigure(pivot("row", "<%s>", "", kops, twice), 4)
	if len(rep.Tables) != 2 || len(rep.Series) != 0 {
		t.Fatalf("pivot without curves: %d tables, %d series", len(rep.Tables), len(rep.Series))
	}
	wantHeader := []string{"row", "x=1", "x=2", "x=4"}
	for _, tbl := range rep.Tables {
		if !reflect.DeepEqual(tbl.Header, wantHeader) {
			t.Fatalf("%s header %q, want %q", tbl.Title, tbl.Header, wantHeader)
		}
		if len(tbl.Rows) != 2 || tbl.Rows[1][2] != "OOS" {
			t.Fatalf("%s should read OOS at row b, column x=2: %q", tbl.Title, tbl.Rows)
		}
	}
	if want := [][]string{{"<a>", "0", "1", "2"}, {"<b>", "10", "OOS", "12"}}; !reflect.DeepEqual(rep.Tables[0].Rows, want) {
		t.Fatalf("rows %q, want %q", rep.Tables[0].Rows, want)
	}
	if rep.Tables[1].Rows[0][3] != "4.0" {
		t.Fatalf("second metric formats its own value: %q", rep.Tables[1].Rows[0])
	}
	if len(rep.Notes) != 0 {
		t.Fatalf("a pivot without curves drops nothing, so it notes nothing: %q", rep.Notes)
	}

	rep = layoutFigure(pivot("row", "<%s>", "x", kops.curve(" kops", "KOps/s"), twice), 4)
	if rep.Tables[0].Rows[1][2] != "OOS" || rep.Tables[1].Rows[1][2] != "OOS" {
		t.Fatalf("OOS missing from a table: %q %q", rep.Tables[0].Rows, rep.Tables[1].Rows)
	}
	if len(rep.Notes) != 1 || rep.Notes[0] != "<b> x=2 ran out of space" {
		t.Fatalf("notes: %q", rep.Notes)
	}
	if len(rep.Series) != 2 {
		t.Fatalf("one curve per row for the one curved metric, got %d", len(rep.Series))
	}
	a, b := rep.Series[0], rep.Series[1]
	if a.Name != "<a> kops" || a.XLabel != "x" || a.YLabel != "KOps/s" {
		t.Fatalf("curve labels: %+v", a)
	}
	if !reflect.DeepEqual(a.X, []float64{1, 2, 4}) || !reflect.DeepEqual(a.Y, []float64{0, 1, 2}) {
		t.Fatalf("row a curve: %v %v", a.X, a.Y)
	}
	if !reflect.DeepEqual(b.X, []float64{1, 4}) || !reflect.DeepEqual(b.Y, []float64{10, 12}) {
		t.Fatalf("row b should lose exactly its x=2 point: %v %v", b.X, b.Y)
	}
}

func figureByID(t *testing.T, id string) *figure {
	t.Helper()
	for _, f := range figures {
		if f.id == id {
			return f
		}
	}
	t.Fatalf("no figure %q", id)
	return nil
}

// TestIdenticalSpecsRunOnce: replsweep's unreplicated cell has no
// discipline, so per engine its 2 x 3 grid is 5 distinct specs and both
// rows' R=1 column is the same run.
func TestIdenticalSpecsRunOnce(t *testing.T) {
	o := fastOptions()
	o.Engines = []core.EngineKind{core.BTree, core.Betree}
	_, _, cells, specs := figureByID(t, "replsweep").plan(o)
	if len(cells) != 12 || len(specs) != 10 {
		t.Fatalf("%d cells over %d specs, want 12 over 10", len(cells), len(specs))
	}
	var order []string
	for _, s := range specs[:5] {
		order = append(order, fmt.Sprintf("%s/%d", s.ReplMode, s.Replicas))
	}
	if want := []string{"/1", "chain/2", "chain/3", "quorum/2", "quorum/3"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("run order %v, want %v", order, want)
	}
	if cells[0].run != cells[3].run || cells[6].run != cells[9].run {
		t.Fatal("chain and quorum rows should share their engine's R=1 run")
	}
	if cells[0].run == cells[6].run {
		t.Fatal("different engines must not share a run")
	}
	seen := map[string]bool{}
	for _, s := range specs {
		if seen[s.Name] {
			t.Fatalf("duplicate spec name %q", s.Name)
		}
		seen[s.Name] = true
	}
}

// TestFixedEngineNote: a figure about one engine says that an -engine
// override is ignored, unless the override is exactly that engine.
func TestFixedEngineNote(t *testing.T) {
	const fig8Note = "fig8 is an LSM-specific over-provisioning study; the -engine override is ignored"
	for _, tc := range []struct {
		id       string
		override []core.EngineKind
		runs     core.EngineKind
		want     []string
	}{
		{"fig8", nil, core.LSM, nil},
		{"fig8", []core.EngineKind{core.LSM}, core.LSM, nil},
		{"fig8", []core.EngineKind{core.BTree}, core.LSM, []string{fig8Note}},
		{"fig8", []core.EngineKind{core.LSM, core.BTree}, core.LSM, []string{fig8Note}},
		{"betradeoff", []core.EngineKind{core.Betree}, core.Betree, nil},
		{"betradeoff", []core.EngineKind{core.LSM}, core.Betree,
			[]string{"betradeoff sweeps the Bε-tree's ε knob; the -engine override is ignored"}},
		{"fig2", []core.EngineKind{core.Betree}, core.Betree, nil},
	} {
		rep, _, _, specs := figureByID(t, tc.id).plan(Options{Engines: tc.override})
		if !reflect.DeepEqual(rep.Notes, tc.want) {
			t.Errorf("%s -engine %v: notes %q, want %q", tc.id, tc.override, rep.Notes, tc.want)
		}
		for _, s := range specs {
			if s.Engine != tc.runs {
				t.Errorf("%s -engine %v: cell %q runs %s, want %s", tc.id, tc.override, s.Name, s.Engine, tc.runs)
			}
		}
	}
}
