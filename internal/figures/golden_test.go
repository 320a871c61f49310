package figures

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ptsbench/internal/core"
)

// The golden fixture pins everything a figure run produces: the
// rendered text of every figure at the test options, the same for the
// -engine override paths (a restricted engine-generic figure and the
// two "override is ignored" notes), and an ExpReport over a committed
// example spec. Render shows a curve only as a sparkline and three
// points, so each report is followed by one line per series carrying a
// hash over every (x, y) point. It was generated on the fourteen
// hand-written figure functions; the figure-as-a-value runner must
// reproduce it byte for byte.
//
// Regenerate (only when a deliberate behavioural change is made):
//
//	go test ./internal/figures -run TestGoldenFigures -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden figure fixture")

// fastReports memoises Run(id, fastOptions()): the golden test and the
// shape tests look at the same reports, so each figure runs once per
// test binary. Reports are shared — tests must not modify them.
var fastReports = map[string]*Report{}

func fastReport(t *testing.T, id string) *Report {
	t.Helper()
	if rep := fastReports[id]; rep != nil {
		return rep
	}
	rep, err := Run(id, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	fastReports[id] = rep
	return rep
}

// writeGolden appends one report to the fixture text.
func writeGolden(t *testing.T, b *bytes.Buffer, rep *Report) {
	t.Helper()
	if err := rep.Render(b); err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Series {
		h := sha256.New()
		for i := range s.X {
			fmt.Fprintf(h, "%s,%s\n",
				strconv.FormatFloat(s.X[i], 'g', -1, 64),
				strconv.FormatFloat(s.Y[i], 'g', -1, 64))
		}
		fmt.Fprintf(b, "series %q points=%d sha256=%x\n", s.Name, len(s.X), h.Sum(nil)[:8])
	}
	b.WriteString("\n")
}

func TestGoldenFigures(t *testing.T) {
	var got bytes.Buffer
	for _, id := range IDs() {
		writeGolden(t, &got, fastReport(t, id))
	}
	for _, id := range []string{"fig2", "fig5", "fig8", "betradeoff", "replsweep"} {
		o := fastOptions()
		o.Engines = []core.EngineKind{core.Betree}
		rep, err := Run(id, o)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "--- %s -engine betree ---\n", id)
		writeGolden(t, &got, rep)
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "specs", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	exp, err := core.ParseExperiment(data)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := exp.Specs(true)
	if err != nil {
		t.Fatal(err)
	}
	results, err := core.RunGrid(specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	writeGolden(t, &got, ExpReport(exp.Name, specs, results))

	path := filepath.Join("testdata", "golden_figures.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, got.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update-golden to create): %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		g, w := "(end of output)", "(end of fixture)"
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("figure output diverges from %s at line %d\ngot:  %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// TestGoldenFig2LSMCell pins the whole Result of fig2's RocksDB cell as
// `ptsbench run -figure fig2 -quick` runs it: the default scale of 128
// and 60 virtual minutes. Unlike the 1024-scale cells above, this cell
// reaches the LSM's slowdown throttle, the branch that stretches the
// burst-to-steady transition of Fig 2a; the test fails if no sample
// charges stall time.
//
// Regenerate with the same -update-golden flag.
func TestGoldenFig2LSMCell(t *testing.T) {
	_, _, _, specs := figureByID(t, "fig2").plan(Options{Quick: true, Engines: []core.EngineKind{core.LSM}})
	if len(specs) != 1 || specs[0].Scale != 128 || specs[0].Duration != 60*time.Minute {
		t.Fatalf("fig2 -quick -engine lsm planned %d cells, first %+v; want one at scale 128 for 60 minutes", len(specs), specs[0])
	}
	res, err := core.Run(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	stalled := false
	for _, s := range res.Series.Samples {
		stalled = stalled || s.StallTime > 0
	}
	if !stalled {
		t.Error("no sample of fig2's LSM cell charges stall time: the slowdown throttle never ran")
	}
	got, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", "golden_fig2_lsm_quick.json")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update-golden to create): %v", err)
	}
	gotLines, wantLines := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		if i >= len(gotLines) || i >= len(wantLines) || gotLines[i] != wantLines[i] {
			t.Fatalf("fig2's LSM cell diverges from %s at line %d", path, i+1)
		}
	}
}
