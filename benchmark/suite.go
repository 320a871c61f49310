package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// The suite is the benchmark as one command for people: every workload,
// K untraced repetitions each in a fresh child process of this binary
// (cold heap, clean peak RSS, no GC state leaking between cells),
// interleaved round-robin so that machine drift hits all cells alike,
// then one traced child per workload. Host-time metrics are reported as
// the minimum over the repetitions — noise on a shared VM is one-sided —
// with median and maximum beside it; simulated metrics must be
// bit-identical across repetitions and between the traced and untraced
// runs. The driver's contract form (one run per invocation) is runCell.

const (
	// stealGuardPct is the machine-wide steal share above which a
	// repetition is run again; maxRetries bounds that.
	stealGuardPct = 5.0
	maxRetries    = 2
)

// suiteRun is one child process. Every run made is listed, the discarded
// ones too.
type suiteRun struct {
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"` // -1: the traced run
	Attempt  int     `json:"attempt"`
	ElapsedS float64 `json:"elapsed_s"`
	// Discarded: steal share above the guard; a later attempt replaced it.
	Discarded bool   `json:"discarded,omitempty"`
	Info      info   `json:"info"`
	Result    result `json:"result"`
}

// summary is one end-to-end metric of one workload over the kept
// repetitions. Value is what the suite reports: the best repetition for
// host metrics, the common value for simulated ones.
type summary struct {
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Worst  float64 `json:"worst"`
	// Spread is (worst - best) / best over the repetitions.
	Spread float64 `json:"spread"`
}

// suiteFile is what -o writes and -compare reads.
type suiteFile struct {
	Seed       uint64                        `json:"seed"`
	Seconds    float64                       `json:"seconds"`
	Reps       int                           `json:"reps"`
	GoVersion  string                        `json:"go"`
	GOMAXPROCS int                           `json:"gomaxprocs"`
	GOGC       string                        `json:"gogc"`
	Workloads  []string                      `json:"workloads"`
	EndToEnd   map[string]map[string]summary `json:"end_to_end"`
	PerLayer   map[string]map[string]metric  `json:"per_layer"`
	Digests    map[string]string             `json:"sim_digest"`
	Failed     []string                      `json:"failed_checks"`
	Runs       []suiteRun                    `json:"runs"`
}

func runChild(exe string, c cell, seed uint64, seconds float64, traced bool) (suiteRun, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", c.name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", trace)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return suiteRun{}, fmt.Errorf("%s: %w", c.name, err)
	}
	run := suiteRun{Workload: c.name, ElapsedS: time.Since(t0).Seconds()}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) < 2 {
		return run, fmt.Errorf("%s: child printed no result", c.name)
	}
	infoLine, ok := strings.CutPrefix(lines[len(lines)-2], "info ")
	if !ok {
		return run, fmt.Errorf("%s: child printed no info line", c.name)
	}
	if err := json.Unmarshal([]byte(infoLine), &run.Info); err != nil {
		return run, fmt.Errorf("%s: info line: %w", c.name, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.Result); err != nil {
		return run, fmt.Errorf("%s: result line: %w", c.name, err)
	}
	return run, nil
}

func runSuite(w io.Writer, seed uint64, seconds float64, reps int, out string) (bool, error) {
	if reps < 1 {
		return false, fmt.Errorf("-reps must be at least 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	sf := &suiteFile{
		Seed: seed, Seconds: seconds, Reps: reps,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"),
		Workloads: cellNames(),
	}
	fmt.Fprintf(w, "suite: seed %d, %g s per run, %d repetitions, %s, GOMAXPROCS %d, GOGC %q\n",
		seed, seconds, reps, sf.GoVersion, sf.GOMAXPROCS, sf.GOGC)
	for pass := 0; pass <= reps; pass++ {
		rep := pass
		if pass == reps {
			rep = -1 // the traced pass, run last
		}
		for _, c := range cells {
			for attempt := 0; ; attempt++ {
				run, err := runChild(exe, c, seed, seconds, rep < 0)
				if err != nil {
					return false, err
				}
				run.Rep, run.Attempt = rep, attempt
				run.Discarded = run.Info.StealPct > stealGuardPct && attempt < maxRetries
				sf.Runs = append(sf.Runs, run)
				note := ""
				if run.Discarded {
					note = "  DISCARDED (steal above guard), running again"
				}
				fmt.Fprintf(w, "  rep %2d %-17s %5.1fs  steal_pct %.2f  invol_ctx_switches %d%s\n",
					rep, c.name, run.ElapsedS, run.Info.StealPct, run.Info.InvolCtxSw, note)
				if !run.Discarded {
					break
				}
			}
		}
	}
	sf.summarize()
	sf.print(w)
	if out != "" {
		data, err := json.MarshalIndent(sf, "", " ")
		if err != nil {
			return false, err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return false, err
		}
	}
	return len(sf.Failed) == 0, nil
}

// summarize folds the kept runs into the per-workload summaries and runs
// every cross-run check.
func (sf *suiteFile) summarize() {
	sf.EndToEnd = map[string]map[string]summary{}
	sf.PerLayer = map[string]map[string]metric{}
	sf.Digests = map[string]string{}
	fail := func(format string, args ...any) { sf.Failed = append(sf.Failed, fmt.Sprintf(format, args...)) }
	for _, name := range sf.Workloads {
		values := map[string][]float64{}
		for _, run := range sf.Runs {
			if run.Workload != name || run.Discarded {
				continue
			}
			if !run.Result.Correct {
				fail("%s rep %d: %d of %d ops failed: %s", name, run.Rep, run.Result.Failed, run.Result.Attempted, strings.Join(run.Info.FailedChecks, "; "))
			}
			if d, seen := sf.Digests[name]; !seen {
				sf.Digests[name] = run.Info.SimDigest
			} else if d != run.Info.SimDigest {
				fail("%s rep %d: sim_digest %s differs from the first run's %s", name, run.Rep, run.Info.SimDigest, d)
			}
			if run.Rep < 0 {
				sf.PerLayer[name] = run.Result.Metrics
				continue
			}
			for metric, m := range run.Result.Metrics {
				values[metric] = append(values[metric], m.Value)
			}
		}
		sf.EndToEnd[name] = map[string]summary{}
		for _, def := range endToEndDefs {
			v := append([]float64(nil), values[def.name]...)
			if len(v) == 0 {
				fail("%s: no run reported %s", name, def.name)
				continue
			}
			slices.Sort(v) // best first
			if !def.lower {
				slices.Reverse(v)
			}
			best, worst := v[0], v[len(v)-1]
			if def.simulated && best != worst {
				fail("%s: simulated metric %s differs between repetitions (%v .. %v)", name, def.name, best, worst)
			}
			sf.EndToEnd[name][def.name] = summary{
				Unit: def.unit, Value: best, Median: median(v), Worst: worst,
				Spread: ratio(math.Abs(worst-best), best),
			}
		}
	}
	sf.checkLedger(fail)
}

// servingShare is how much of a cell's traced host time the serving
// layers (store and replica) spend themselves.
func servingShare(layers map[string]metric) float64 {
	return ratio(layers["store.self_ns_per_op"].Value+layers["replica.self_ns_per_op"].Value, layers["trace.host_ns_per_op"].Value)
}

// checkLedger verifies that the traced run accounts for each cell: the
// layers' self times add up to the traced host time on every 1-shard
// workload (within 5%; with several shards the store's own share is the
// part of each pump the slowest shard does not explain, so the sum need
// not close), and serve-quorum is the cell where the serving layers'
// share is largest — if it is not, the cell is not doing its job.
func (sf *suiteFile) checkLedger(fail func(string, ...any)) {
	topName, topShare := "", -1.0
	for _, c := range cells {
		layers := sf.PerLayer[c.name]
		if layers == nil {
			continue
		}
		var sum float64
		for _, name := range layerShares {
			sum += layers[name].Value
		}
		traced := layers["trace.host_ns_per_op"].Value
		if c.spec.Shards <= 1 && math.Abs(sum-traced) > 0.05*traced {
			fail("%s: layers account for %.0f ns/op of the traced %.0f ns/op (more than 5%% apart)", c.name, sum, traced)
		}
		if s := servingShare(layers); s > topShare {
			topName, topShare = c.name, s
		}
	}
	if topName != "" && topName != "serve-quorum" {
		fail("serving-layer share is largest on %s (%.0f%%), not on serve-quorum", topName, 100*topShare)
	}
}

func (sf *suiteFile) print(w io.Writer) {
	for _, name := range sf.Workloads {
		fmt.Fprintf(w, "\n%s  (sim_digest %.16s)\n", name, sf.Digests[name])
		fmt.Fprintf(w, "  %-20s %14s %14s %14s  %-7s %s\n", "end-to-end", "value", "median", "worst", "unit", "spread")
		for _, def := range endToEndDefs {
			s := sf.EndToEnd[name][def.name]
			how := "best of reps"
			if def.simulated {
				how = "exact"
			}
			fmt.Fprintf(w, "  %-20s %14.6g %14.6g %14.6g  %-7s %5.1f%%  (%s)\n", def.name, s.Value, s.Median, s.Worst, s.Unit, 100*s.Spread, how)
		}
	}
	fmt.Fprintf(w, "\nper-layer (traced run)\n  %-34s", "")
	for _, name := range sf.Workloads {
		fmt.Fprintf(w, " %17s", name)
	}
	var layerNames []string
	for name := range sf.PerLayer[sf.Workloads[0]] {
		layerNames = append(layerNames, name)
	}
	sort.Strings(layerNames)
	for _, metric := range layerNames {
		fmt.Fprintf(w, "\n  %-34s", metric+" ["+sf.PerLayer[sf.Workloads[0]][metric].Unit+"]")
		for _, name := range sf.Workloads {
			fmt.Fprintf(w, " %17.6g", sf.PerLayer[name][metric].Value)
		}
	}
	fmt.Fprintf(w, "\n\nwho does the work (share of the traced host time per op)\n  %-34s", "")
	for _, name := range sf.Workloads {
		fmt.Fprintf(w, " %17s", name)
	}
	for _, metric := range append(layerShares, "flash.replay_ns_per_op") {
		fmt.Fprintf(w, "\n  %-34s", strings.TrimSuffix(metric, "_ns_per_op"))
		for _, name := range sf.Workloads {
			fmt.Fprintf(w, " %16.1f%%", 100*ratio(sf.PerLayer[name][metric].Value, sf.PerLayer[name]["trace.host_ns_per_op"].Value))
		}
	}
	fmt.Fprintf(w, "\n  (flash.replay is part of blockdev.busy)\n")
	if len(sf.Failed) == 0 {
		fmt.Fprintf(w, "\nall checks passed\n")
		return
	}
	fmt.Fprintf(w, "\nFAILED CHECKS\n")
	for _, f := range sf.Failed {
		fmt.Fprintf(w, "  %s\n", f)
	}
}

func readSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf suiteFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sf, nil
}

// runCompare prints two suite files side by side: one row per (workload,
// end-to-end metric) with both values, the ratio with its base, and a
// verdict, then the per-layer deltas. This is what a perf issue pastes.
func runCompare(w io.Writer, pathA, pathB string) error {
	a, err := readSuite(pathA)
	if err != nil {
		return err
	}
	b, err := readSuite(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = %s (seed %d, %g s, %d reps)\nB = %s (seed %d, %g s, %d reps)\n", pathA, a.Seed, a.Seconds, a.Reps, pathB, b.Seed, b.Seconds, b.Reps)
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "WARNING: different seed or run length: simulated metrics are not comparable exactly\n")
	}
	fmt.Fprintf(w, "\n%-17s %-20s %14s %14s  %-28s %s\n", "workload", "end-to-end metric", "A", "B", "B/A (base A)", "verdict")
	for _, name := range a.Workloads {
		for _, def := range endToEndDefs {
			sa, okA := a.EndToEnd[name][def.name]
			sb, okB := b.EndToEnd[name][def.name]
			if !okA || !okB {
				continue
			}
			fmt.Fprintf(w, "%-17s %-20s %14.6g %14.6g  %-28s %s\n", name, def.name, sa.Value, sb.Value,
				fmt.Sprintf("%.4f (base %.6g %s)", ratio(sb.Value, sa.Value), sa.Value, def.unit), verdict(def, sa, sb))
		}
		if a.Digests[name] != b.Digests[name] {
			fmt.Fprintf(w, "%-17s sim_digest differs: the simulated behaviour changed (or seed / run length did)\n", name)
		}
	}
	fmt.Fprintf(w, "\n%-17s %-34s %14s %14s %9s\n", "workload", "per-layer metric", "A", "B", "delta")
	for _, name := range a.Workloads {
		var names []string
		for metric := range a.PerLayer[name] {
			names = append(names, metric)
		}
		sort.Strings(names)
		for _, metric := range names {
			ma, mb := a.PerLayer[name][metric], b.PerLayer[name][metric]
			if ma.Value == 0 && mb.Value == 0 {
				continue
			}
			fmt.Fprintf(w, "%-17s %-34s %14.6g %14.6g %+8.1f%%\n", name, metric+" ["+ma.Unit+"]", ma.Value, mb.Value, 100*ratio(mb.Value-ma.Value, ma.Value))
		}
	}
	return nil
}

// verdict judges B against A on one metric: regressed when B is worse
// than A by more than the bound; unresolved when either side's own
// repetitions are further apart than the bound, so the data cannot tell.
func verdict(def metricDef, a, b summary) string {
	worse := ratio(b.Value-a.Value, a.Value)
	if !def.lower {
		worse = -worse
	}
	switch {
	case def.simulated && a.Value == b.Value:
		return "ok (identical)"
	case !def.simulated && (a.Spread > def.bound || b.Spread > def.bound):
		return fmt.Sprintf("unresolved (spread between reps %.1f%% / %.1f%% exceeds the %.0f%% bound)", 100*a.Spread, 100*b.Spread, 100*def.bound)
	case worse > def.bound:
		return fmt.Sprintf("regressed (%.1f%% worse, bound %.0f%%)", 100*worse, 100*def.bound)
	case worse < -def.bound:
		return fmt.Sprintf("improved (%.1f%% better)", -100*worse)
	case def.simulated:
		return fmt.Sprintf("ok (moved %+.2f%%, within the %.0f%% bound)", 100*worse, 100*def.bound)
	}
	return "ok"
}
