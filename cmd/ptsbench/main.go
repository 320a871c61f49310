// Command ptsbench regenerates the figures and tables of "Toward a
// Better Understanding and Evaluation of Tree Structures on Flash SSDs"
// (VLDB 2020) on the simulated storage stack.
//
// Usage:
//
//	ptsbench list
//	ptsbench engines
//	ptsbench run -figure fig2 [-engine lsm,btree,betree] [-scale 128] [-quick] [-seed 1] [-csv DIR]
//	ptsbench exp -spec FILE [-quick] [-csv DIR] [-json FILE] [-workers N]
//	ptsbench qdsweep [-scale 512] [-quick] [-seed 1] [-csv DIR]
//	ptsbench crash -engine lsm [-shards 4] [-ops 400] [-seed 1] [-trials 8] [-replicas R] [-repl-mode chain|quorum] [-errors KINDS -error-prob P] [-cut-shard S -cut-write W] [-device sim|file] [-dir DIR]
//	ptsbench devdiff [-engine lsm,btree,betree] [-ops 600] [-seed 1] [-dir DIR]
//	ptsbench all [-quick] [-csv DIR]
//
// engines lists the registered engine drivers and every declarative
// tunable each accepts; exp runs a declarative experiment spec file (a
// JSON document sweeping engines, read fractions, queue depths and
// scales — see examples/specs and the README's "Running your own
// experiments"), executing the grid concurrently and rendering a
// summary table plus per-cell throughput curves. -json additionally
// writes the raw results (specs included) as JSON.
//
// qdsweep is shorthand for "run -figure qdsweep": the queue-depth sweep
// on an SSD with internal channel/way parallelism, whose cells execute
// concurrently across host cores.
//
// crash runs the randomized crash-recovery harness (internal/crash):
// a seed-determined op log over fault-injecting devices, a power cut at
// a sampled write boundary, recovery through the engine registry, and a
// reference-model check of the recovered store. Every trial is fully
// determined by its seed; on failure the error starts with the exact
// `ptsbench crash -seed N` line that replays it. -device file runs the
// same harness over real backing files (internal/filedev) and
// additionally verifies the file matches the resolved durable image
// after every power-on; -dir keeps the per-trial images for inspection.
// -cut-shard S -cut-write W (both or neither) pin where the fault lands
// instead of sampling it.
// -replicas R (with -repl-mode chain or quorum) turns every shard into
// a replica group of R full engine stacks and changes the failure: one
// replica's device is killed mid-batch while the machine keeps serving,
// and the trial verifies zero acknowledged-write loss through the
// failover, recovery of the killed replica from its own durable image,
// and entry-identical reconvergence of the whole group. -errors (with
// -replicas >=2) switches the failure from a power cut to the
// host-stack error model: the listed kinds (eio, short, misdirect,
// fsynclie) arm on one replica mid-run and fire per-op with
// -error-prob; the serving layer must absorb them by retry and
// automatic failover, the damaged replica is power-cycled and
// recovered (a loud recovery refusal triggers a rebuild from the
// surviving authority), and the trial again proves zero
// acknowledged-write loss.
//
// devdiff runs the differential checker (internal/devdiff): the same
// seeded op log over the simulated device and over a real backing file
// must produce identical results, I/O counters, write histograms,
// byte-identical device images and identical recovered scans.
//
// -engine restricts an engine-generic figure to a subset of the three
// tree structures; e.g. `ptsbench run -figure fig2 -engine betree`
// measures the Bε-tree alone, and `run -figure betradeoff` sweeps its ε
// (buffer fraction) knob against the read fraction.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ptsbench/internal/core"
	"ptsbench/internal/crash"
	"ptsbench/internal/engine"
	"ptsbench/internal/figures"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "list":
		fmt.Println("available figures:")
		for _, id := range figures.IDs() {
			fmt.Printf("  %s\n", id)
		}
	case "engines":
		listEngines(os.Stdout)
	case "exp":
		fs := flag.NewFlagSet("exp", flag.ExitOnError)
		specPath := fs.String("spec", "", "experiment spec file (JSON; see examples/specs)")
		quick := fs.Bool("quick", false, "shorten runs for a fast smoke pass")
		csvDir := fs.String("csv", "", "also write CSV files into this directory")
		jsonOut := fs.String("json", "", "write raw results (specs included) as JSON to this file")
		workers := fs.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS)")
		_ = fs.Parse(os.Args[2:])
		if *specPath == "" {
			fmt.Fprintln(os.Stderr, "exp: -spec is required")
			os.Exit(2)
		}
		if err := runExp(*specPath, *quick, *csvDir, *jsonOut, *workers); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case "run":
		fs := flag.NewFlagSet("run", flag.ExitOnError)
		figure := fs.String("figure", "", "figure id (see 'ptsbench list')")
		opts, csvDir := commonFlags(fs)
		_ = fs.Parse(os.Args[2:])
		if *figure == "" {
			fmt.Fprintln(os.Stderr, "run: -figure is required")
			os.Exit(2)
		}
		if err := runOne(*figure, *opts, *csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case "qdsweep":
		fs := flag.NewFlagSet("qdsweep", flag.ExitOnError)
		opts, csvDir := commonFlags(fs)
		_ = fs.Parse(os.Args[2:])
		if err := runOne("qdsweep", *opts, *csvDir); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case "crash":
		fs := flag.NewFlagSet("crash", flag.ExitOnError)
		eng := fs.String("engine", "", "engine to crash-test (lsm, btree, betree)")
		shards := fs.Int("shards", 1, "store shard count")
		ops := fs.Int("ops", 400, "recorded op-log length")
		keys := fs.Int("keys", 0, "key-space bound (0 = ops/8, min 16)")
		seed := fs.Uint64("seed", 1, "trial seed (trial t runs with seed+t)")
		trials := fs.Int("trials", 1, "independent seeds to run")
		cutShard := fs.Int("cut-shard", -1, "pin the cut shard; needs -cut-write (-1 = sample shard and write by write traffic)")
		cutWrite := fs.Int64("cut-write", 0, "pin the 1-based cut write within -cut-shard; needs -cut-shard (0 = sample)")
		replicas := fs.Int("replicas", 1, "replicas per shard (>1 kills one replica's device instead of the machine)")
		replMode := fs.String("repl-mode", "", "replication mode for -replicas >1: chain (default) or quorum (needs >=3)")
		errKinds := fs.String("errors", "", "comma-separated error kinds to arm on one replica (eio, short, misdirect, fsynclie); needs -replicas >=2")
		errProb := fs.Float64("error-prob", 0, "per-op probability of each armed error kind (0 = default 0.05)")
		device := fs.String("device", "sim", "backing device: sim (flash simulator) or file (real files via internal/filedev)")
		dir := fs.String("dir", "", "file device only: keep per-trial shard images under this directory (default: temp, removed)")
		_ = fs.Parse(os.Args[2:])
		if *eng == "" {
			fmt.Fprintln(os.Stderr, "crash: -engine is required")
			os.Exit(2)
		}
		if *cutShard == 0 && *cutWrite == 0 {
			// As a Spec this is the zero value, which samples; on the
			// command line it is an explicit half pin like any other.
			fmt.Fprintln(os.Stderr, "crash: -cut-shard needs -cut-write (pin both or neither)")
			os.Exit(2)
		}
		var kinds []string
		if *errKinds != "" {
			kinds = strings.Split(*errKinds, ",")
		}
		if err := runCrash(crash.Spec{
			Engine:     *eng,
			Shards:     *shards,
			Ops:        *ops,
			Keys:       *keys,
			Seed:       *seed,
			Trials:     *trials,
			CutShard:   *cutShard,
			CutWrite:   *cutWrite,
			Replicas:   *replicas,
			ReplMode:   *replMode,
			ErrorKinds: kinds,
			ErrorProb:  *errProb,
			Device:     *device,
			Dir:        *dir,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case "devdiff":
		fs := flag.NewFlagSet("devdiff", flag.ExitOnError)
		eng := fs.String("engine", "", "engine to check (default: all registered)")
		ops := fs.Int("ops", 0, "op-log length (0 = default 600)")
		keys := fs.Int("keys", 0, "key-space bound (0 = ops/8, min 16)")
		seed := fs.Uint64("seed", 1, "op-log seed")
		dir := fs.String("dir", "", "keep the file backend's image in this directory (default: temp, removed)")
		_ = fs.Parse(os.Args[2:])
		engines := engine.Names()
		if *eng != "" {
			engines = strings.Split(*eng, ",")
		}
		if err := runDevdiff(engines, *ops, *keys, *seed, *dir); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	case "all":
		fs := flag.NewFlagSet("all", flag.ExitOnError)
		opts, csvDir := commonFlags(fs)
		_ = fs.Parse(os.Args[2:])
		for _, id := range figures.IDs() {
			if err := runOne(id, *opts, *csvDir); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
				os.Exit(1)
			}
		}
	default:
		usage()
		os.Exit(2)
	}
}

func commonFlags(fs *flag.FlagSet) (*figures.Options, *string) {
	opts := &figures.Options{}
	fs.Int64Var(&opts.Scale, "scale", 0, "simulation scale override (0 = figure default)")
	fs.BoolVar(&opts.Quick, "quick", false, "shorten runs for a fast smoke pass")
	fs.Uint64Var(&opts.Seed, "seed", 0, "deterministic seed override")
	fs.Func("engine", "restrict to engines (comma-separated: lsm, btree, betree)", func(v string) error {
		for _, name := range strings.Split(v, ",") {
			k, err := core.ParseEngine(strings.TrimSpace(name))
			if err != nil {
				return err
			}
			opts.Engines = append(opts.Engines, k)
		}
		return nil
	})
	csvDir := fs.String("csv", "", "also write CSV files into this directory")
	return opts, csvDir
}

func runOne(id string, opts figures.Options, csvDir string) error {
	start := time.Now()
	rep, err := figures.Run(id, opts)
	if err != nil {
		return err
	}
	return emit(rep, id, start, csvDir)
}

// emit prints a finished report with the wall-clock time it took since
// start and, with a csvDir, also writes its CSV files there.
func emit(rep *figures.Report, name string, start time.Time, csvDir string) error {
	if err := rep.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	if csvDir != "" {
		if err := rep.WriteCSV(csvDir); err != nil {
			return err
		}
		fmt.Printf("CSV written to %s\n", csvDir)
	}
	return nil
}

// listEngines prints the driver registry: every engine and the
// declarative tunables its spec files accept.
func listEngines(w io.Writer) {
	for _, name := range engine.Names() {
		drv, err := engine.Lookup(name)
		if err != nil {
			continue // Names lists only registered drivers
		}
		tunables := drv.Configure(engine.Sizing{}).Tunables()
		fmt.Fprintf(w, "%s\n", name)
		width := 0
		for _, t := range tunables {
			if len(t.Name) > width {
				width = len(t.Name)
			}
		}
		for _, t := range tunables {
			fmt.Fprintf(w, "  %-*s  %-8s  %s\n", width, t.Name, t.Kind, t.Doc)
		}
		fmt.Fprintln(w)
	}
}

// runExp executes a declarative experiment spec file: parse, expand the
// sweep grid, run the cells concurrently, render.
func runExp(specPath string, quick bool, csvDir, jsonOut string, workers int) error {
	start := time.Now()
	data, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	exp, err := core.ParseExperiment(data)
	if err != nil {
		return err
	}
	if exp.Name == "" {
		// Resolve the fallback before expansion so cell names and the
		// report label agree.
		exp.Name = strings.TrimSuffix(filepath.Base(specPath), filepath.Ext(specPath))
	}
	specs, err := exp.Specs(quick)
	if err != nil {
		return err
	}
	fmt.Printf("running %d cells from %s\n", len(specs), specPath)
	results, err := core.RunGrid(specs, workers)
	if err != nil {
		return err
	}
	if err := emit(figures.ExpReport(exp.Name, specs, results), exp.Name, start, csvDir); err != nil {
		return err
	}
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		if err := core.WriteResultsJSON(f, results); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("results written to %s\n", jsonOut)
	}
	return nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  ptsbench list
  ptsbench engines
  ptsbench run -figure figN [-engine lsm,btree,betree] [-scale N] [-quick] [-seed N] [-csv DIR]
  ptsbench exp -spec FILE [-quick] [-csv DIR] [-json FILE] [-workers N]
  ptsbench qdsweep [-scale N] [-quick] [-seed N] [-csv DIR]
  ptsbench crash -engine NAME [-shards N] [-ops N] [-keys N] [-seed N] [-trials N] [-replicas R] [-repl-mode chain|quorum] [-errors KINDS -error-prob P] [-cut-shard S -cut-write W] [-device sim|file] [-dir DIR]
  ptsbench devdiff [-engine NAME,NAME] [-ops N] [-keys N] [-seed N] [-dir DIR]
  ptsbench all [-quick] [-csv DIR]`)
}
