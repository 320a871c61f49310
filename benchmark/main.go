// Command benchmark is the repository's benchmark: five steady-state
// experiment cells, each reporting host (simulator speed) and simulated
// (modelled design) end-to-end metrics, plus a traced run that breaks
// the host time down by layer. See README.md in this directory for every
// metric's definition and BENCHMARK.json at the repository root for the
// contract the driver checks.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//	benchmark -suite [-reps K] [-seed N] [-seconds S] [-o FILE] every workload, K interleaved runs each
//	benchmark -compare A.json B.json                           two suite files side by side
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	_ "ptsbench/internal/engine/all"
)

// setupReps is how many times one run sets the cell up; setup_s is the
// median, because a single set-up of a second or so is the noisiest
// number the benchmark reports.
const setupReps = 3

// result is the last line of a run's standard output: exactly these keys.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// info is the context of one run, printed on the line before the result
// (the result line's keys are fixed): what the suite needs to check runs
// against each other and what a reader needs to trust the numbers.
type info struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	SimDigest  string    `json:"sim_digest"`
	Ops        int64     `json:"ops"`
	Keys       uint64    `json:"keys"`
	MeasuredS  float64   `json:"measured_s"`
	SetupS     []float64 `json:"setup_s"`
	VirtualMin float64   `json:"virtual_min"`
	// HostWritesXCapacity is cumulative host writes over device
	// capacity: the paper's steady-state rule wants >= 3 on write cells.
	HostWritesXCapacity float64 `json:"host_writes_x_capacity"`
	// core.LatencySummary's median (4% buckets, virtual time at paper
	// scale), for context: it lands in the same bucket on every seed, so
	// the reported latency metrics come from the fine histogram.
	SimLatP50Us  float64  `json:"sim_lat_p50_us"`
	TailSamples  uint64   `json:"samples_beyond_p99"`
	StealPct     float64  `json:"steal_pct"`
	InvolCtxSw   int64    `json:"invol_ctx_switches"`
	GoVersion    string   `json:"go"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	GOGC         string   `json:"gogc"`
	TraceFile    string   `json:"trace_file,omitempty"`
	TraceSpans   int      `json:"trace_spans,omitempty"`
	TracedDigest string   `json:"traced_sim_digest,omitempty"`
	FailedChecks []string `json:"failed_checks,omitempty"`
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload: "+strings.Join(cellNames(), ", "))
		seed         = flag.Uint64("seed", 1, "workload seed (same seed, same inputs)")
		seconds      = flag.Float64("seconds", 8, "requested length of the measured phase (fixed work tuned to about this long)")
		trace        = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
		outDir       = flag.String("out", ".bench_build", "directory for trace-<workload>.json")
		suite        = flag.Bool("suite", false, "run every workload -reps times in child processes, then one traced run each")
		reps         = flag.Int("reps", 4, "suite: untraced repetitions per workload")
		suiteOut     = flag.String("o", "", "suite: also write the results as JSON to this file")
		compare      = flag.Bool("compare", false, "compare two suite result files: -compare A.json B.json")
	)
	flag.Parse()
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: benchmark -compare A.json B.json")
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(1, err.Error())
		}
	case *suite:
		ok, err := runSuite(os.Stdout, *seed, *seconds, *reps, *suiteOut)
		if err != nil {
			fatal(1, err.Error())
		}
		if !ok {
			os.Exit(1)
		}
	default:
		c, ok := cellByName(*workloadName)
		if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
			fatal(2, "usage: benchmark --workload {"+strings.Join(cellNames(), "|")+"} --seed N --seconds S --trace 0|1")
		}
		res, inf, err := runCell(c, *seed, *seconds, *trace == 1, *outDir)
		if err != nil {
			fatal(1, fmt.Sprintf("%s: %v", c.name, err))
		}
		if err := printRun(res, inf); err != nil {
			fatal(1, fmt.Sprintf("%s: %v", c.name, err))
		}
	}
}

func fatal(code int, msg string) {
	fmt.Fprintln(os.Stderr, "benchmark:", msg)
	os.Exit(code)
}

func cellNames() []string {
	names := make([]string, len(cells))
	for i, c := range cells {
		names[i] = c.name
	}
	return names
}

// printRun prints every metric by name with its unit, the info line, and
// the result as the last line. A value JSON cannot carry (NaN, Inf) is an
// error: the run prints no result.
func printRun(res result, inf info) error {
	infoLine, err := json.Marshal(inf)
	if err != nil {
		return err
	}
	resultLine, err := json.Marshal(res)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("# %s seed=%d seconds=%g traced=%v: %d ops in %.2fs, %d keys, %.0f virtual min, host writes %.1fx capacity\n",
		inf.Workload, inf.Seed, inf.Seconds, inf.Traced, inf.Ops, inf.MeasuredS, inf.Keys, inf.VirtualMin, inf.HostWritesXCapacity)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-36s %16s %s\n", name, strconv.FormatFloat(m.Value, 'g', 8, 64), m.Unit)
	}
	for _, c := range inf.FailedChecks {
		fmt.Println("FAILED CHECK:", c)
	}
	fmt.Printf("info %s\n%s\n", infoLine, resultLine)
	return nil
}

// runCell is one run of one workload. The untraced pass always runs (its
// numbers are the end-to-end metrics, and the traced pass needs them for
// the overhead and the digest check); with traced set a second pass
// rebuilds the identical cell behind the tracer.
func runCell(c cell, seed uint64, seconds float64, traced bool, outDir string) (result, info, error) {
	spec, err := c.specFor(seed, seconds, 1)
	if err != nil {
		return result{}, info{}, err
	}
	inf := info{
		Workload: c.name, Seed: seed, Seconds: seconds, Traced: traced,
		VirtualMin: spec.Duration.Minutes(),
		GoVersion:  runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: os.Getenv("GOGC"),
	}
	steal0 := readCPUStat()

	t0 := time.Now()
	r, err := setUp(spec, nil)
	if err != nil {
		return result{}, inf, err
	}
	inf.SetupS = append(inf.SetupS, time.Since(t0).Seconds())
	u, err := r.measure()
	if err != nil {
		return result{}, inf, err
	}
	rss := float64(rusage().Maxrss) / 1024 // high-water mark so far, kB
	failed := u.failed
	violations, err := r.verifyScan(u.end)
	if err != nil {
		return result{}, inf, err
	}
	if violations > 0 {
		failed += violations
		inf.FailedChecks = append(inf.FailedChecks, fmt.Sprintf("post-run scan: %d of the first %d keys missing or out of order", violations, scanKeys))
	}
	if u.failed > 0 {
		inf.FailedChecks = append(inf.FailedChecks, fmt.Sprintf("%d Gets of a loaded key found nothing", u.failed))
	}
	r.st.Close()
	last := u.last()
	inf.SimDigest = u.digest()
	inf.Ops, inf.Keys, inf.MeasuredS = u.ops, r.numKeys, u.wall.Seconds()
	inf.HostWritesXCapacity = float64(last.HostWriteB) / float64(r.capacity*int64(spec.Replicas))
	inf.SimLatP50Us = float64(u.lat.P50) / 1e3
	inf.TailSamples = u.fine.n / 100
	res := result{Attempted: u.ops}

	if !traced {
		// The extra set-ups run after the measured phase so that they
		// cannot inflate its peak RSS.
		for len(inf.SetupS) < setupReps {
			r = nil
			runtime.GC()
			t0 := time.Now()
			if r, err = setUp(spec, nil); err != nil {
				return result{}, inf, err
			}
			inf.SetupS = append(inf.SetupS, time.Since(t0).Seconds())
			r.st.Close()
		}
		res.Metrics = endToEnd(r, u, median(inf.SetupS), rss)
	} else {
		r = nil
		runtime.GC()
		tr := newTracer(spec.Replicas > 1)
		if r, err = setUp(spec, tr); err != nil {
			return result{}, inf, err
		}
		t, err := r.measure()
		if err != nil {
			return result{}, inf, err
		}
		cost := replay(r, t)
		res.Metrics = perLayer(r, t, u, cost)
		if cost.mismatch != nil {
			failed++
			inf.FailedChecks = append(inf.FailedChecks, cost.mismatch.Error())
		}
		if inf.TracedDigest = t.digest(); inf.TracedDigest != inf.SimDigest {
			failed++
			inf.FailedChecks = append(inf.FailedChecks, "traced sim_digest differs from the untraced run's: the shims are not transparent")
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return result{}, inf, err
		}
		inf.TraceFile = filepath.Join(outDir, "trace-"+c.name+".json")
		if inf.TraceSpans, err = tr.writeChrome(inf.TraceFile); err != nil {
			return result{}, inf, err
		}
		r.st.Close()
	}
	steal1 := readCPUStat()
	inf.StealPct = steal1.stealPctSince(steal0)
	inf.InvolCtxSw = rusage().Nivcsw
	res.Failed = failed
	res.Correct = failed == 0
	return res, inf, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuStat is the machine-wide CPU accounting of /proc/stat's first line.
type cpuStat struct{ total, steal float64 }

func readCPUStat() cpuStat {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	var s cpuStat
	// cpu user nice system idle iowait irq softirq steal ...
	for i, f := range strings.Fields(line) {
		if i == 0 || i > 8 {
			continue
		}
		v, _ := strconv.ParseFloat(f, 64)
		s.total += v
		if i == 8 {
			s.steal = v
		}
	}
	return s
}

// stealPctSince is the share of machine CPU time the hypervisor gave to
// someone else since before: the noise the host-time metrics suffer from.
func (s cpuStat) stealPctSince(before cpuStat) float64 {
	return 100 * ratio(s.steal-before.steal, s.total-before.total)
}
