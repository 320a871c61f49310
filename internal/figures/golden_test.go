package figures

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

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
