package main

import (
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ptsbench/internal/core"
	"ptsbench/internal/crash"
	"ptsbench/internal/figures"
)

// TestRunOneSmoke drives the CLI's core path end to end with a tiny
// spec: the qdsweep figure at a very coarse scale, rendered to stdout
// and written as CSV. This is the "does the binary actually work"
// guard; figure correctness is tested in internal/figures.
func TestRunOneSmoke(t *testing.T) {
	opts := figures.Options{Quick: true, Scale: 2048, Seed: 1}
	dir := t.TempDir()
	if err := runOne("qdsweep", opts, dir); err != nil {
		t.Fatalf("runOne: %v", err)
	}
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csvs) == 0 {
		t.Fatal("no CSV files written")
	}
}

func TestRunOneUnknownFigure(t *testing.T) {
	if err := runOne("nope", figures.Options{}, ""); err == nil {
		t.Fatal("unknown figure should error")
	}
}

// TestExpSmoke drives the declarative spec-file path end to end with
// the committed example file — the same invocation CI runs — so
// examples/specs can never silently rot: parse, expand, run the grid,
// render, write CSV and results JSON.
func TestExpSmoke(t *testing.T) {
	dir := t.TempDir()
	jsonOut := filepath.Join(dir, "results.json")
	spec := filepath.Join("..", "..", "examples", "specs", "smoke.json")
	if err := runExp(spec, true, dir, jsonOut, 0); err != nil {
		t.Fatalf("runExp: %v", err)
	}
	csvs, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(csvs) == 0 {
		t.Fatal("no CSV files written")
	}
	f, err := os.Open(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	results, err := core.ReadResultsJSON(f)
	if err != nil {
		t.Fatalf("results JSON unreadable: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("smoke spec should produce 3 cells (one per engine), got %d", len(results))
	}
	for _, res := range results {
		if res.Steady.ThroughputKOps <= 0 {
			t.Fatalf("cell %q measured no throughput", res.Spec.Name)
		}
	}
}

// TestExpExampleSpecsParse keeps every committed example spec file
// loadable and expandable.
func TestExpExampleSpecsParse(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("expected committed example specs, found %d", len(files))
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		exp, err := core.ParseExperiment(data)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		specs, err := exp.Specs(true)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		if len(specs) == 0 {
			t.Fatalf("%s expands to no cells", file)
		}
	}
}

var (
	mdFence    = regexp.MustCompile("(?ms)^```[^\n]*\n(.*?)^```")
	mdSpan     = regexp.MustCompile("`([^`]+)`")
	goRunDir   = regexp.MustCompile("go run \\./([^\\s`]+)")
	subcommand = regexp.MustCompile(`(?m)(?:^|[\s/])ptsbench ([a-z][a-z-]*)`)
)

// TestDocCommandsResolve keeps the commands the docs tell a reader to
// run pointing at code that exists: in the fenced blocks and inline code
// of README.md and the verify skill, every `go run ./DIR` must name a
// directory holding a main package, and every `ptsbench WORD` a
// subcommand main dispatches. Commands for deleted programs are how
// unrun code used to go unnoticed.
func TestDocCommandsResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	dispatched := dispatchedSubcommands(t)
	for _, doc := range []string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")} {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			t.Fatal(err)
		}
		text := string(data)
		var code []string
		for _, m := range mdFence.FindAllStringSubmatch(text, -1) {
			code = append(code, m[1])
		}
		for _, m := range mdSpan.FindAllStringSubmatch(mdFence.ReplaceAllString(text, ""), -1) {
			code = append(code, m[1])
		}
		runs, cmds := 0, 0
		for _, c := range code {
			for _, m := range goRunDir.FindAllStringSubmatch(c, -1) {
				runs++
				if pkg, err := build.ImportDir(filepath.Join(root, m[1]), 0); err != nil || pkg.Name != "main" {
					t.Errorf("%s: `go run ./%s` names no main package", doc, m[1])
				}
			}
			for _, m := range subcommand.FindAllStringSubmatch(c, -1) {
				cmds++
				if !dispatched[m[1]] {
					t.Errorf("%s: `ptsbench %s` is not a subcommand", doc, m[1])
				}
			}
		}
		if runs == 0 || cmds == 0 {
			t.Errorf("%s: found %d go run and %d ptsbench commands; the scan is broken", doc, runs, cmds)
		}
	}
}

// maxPanics is the number of panic calls non-test code outside
// benchmark/ may hold; ROADMAP tracks each one. Lower it when a site
// goes, never raise it to admit one.
const maxPanics = 18

// TestPanicSitesRatchet counts the panic(...) calls in every non-test Go
// file outside benchmark/ and fails when there are more than maxPanics,
// naming each site.
func TestPanicSitesRatchet(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	var sites []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (d.Name() == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					sites = append(sites, fset.Position(call.Pos()).String())
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sites) > maxPanics {
		t.Errorf("%d panic sites in non-test code outside benchmark/, at most %d allowed:\n%s",
			len(sites), maxPanics, strings.Join(sites, "\n"))
	}
}

// dispatchedSubcommands reads the case labels of main's switch over the
// subcommand word.
func dispatchedSubcommands(t *testing.T) map[string]bool {
	f, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cmds := map[string]bool{}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "main" {
			continue
		}
		for _, stmt := range fn.Body.List {
			sw, ok := stmt.(*ast.SwitchStmt)
			if !ok {
				continue
			}
			for _, clause := range sw.Body.List {
				for _, e := range clause.(*ast.CaseClause).List {
					if lit, ok := e.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						word, _ := strconv.Unquote(lit.Value)
						cmds[word] = true
					}
				}
			}
		}
	}
	if len(cmds) == 0 {
		t.Fatal("found no subcommands in main's switch")
	}
	return cmds
}

func TestExpErrors(t *testing.T) {
	if err := runExp(filepath.Join(t.TempDir(), "missing.json"), true, "", "", 0); err == nil {
		t.Fatal("missing spec file should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"engines": ["fractal"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runExp(bad, true, "", "", 0); err == nil {
		t.Fatal("unknown engine in spec file should error")
	}
}

// TestExpUnnamedSpecUsesFileName: a spec file without "name" labels its
// cells (and therefore its CSV artifacts) after the file, not a generic
// fallback, so two unnamed sweeps stay distinguishable.
func TestExpUnnamedSpecUsesFileName(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "mysweep.json")
	doc := `{"engines": ["btree"], "scale": 4096, "duration": "4m", "sample_every": "30s"}`
	if err := os.WriteFile(spec, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	csvDir := filepath.Join(dir, "csv")
	if err := runExp(spec, true, csvDir, "", 0); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(csvDir, "*mysweep*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("cell CSV names should carry the spec file's base name")
	}
}

// TestCrashSmoke drives the crash subcommand's path end to end with a
// small fixed-seed run per engine.
func TestCrashSmoke(t *testing.T) {
	for _, eng := range []string{"lsm", "btree", "betree"} {
		if err := runCrash(crash.Spec{Engine: eng, Shards: 2, Ops: 200, Seed: 11, Trials: 2}); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
	}
	if err := runCrash(crash.Spec{Engine: "fractal"}); err == nil {
		t.Fatal("unknown engine should error")
	}
}

// TestCrashErrorsSmoke drives the -errors trial path end to end: one
// error-plan run per engine, plus the malformed-kind error path.
func TestCrashErrorsSmoke(t *testing.T) {
	for _, eng := range []string{"lsm", "btree", "betree"} {
		if err := runCrash(crash.Spec{
			Engine: eng, Ops: 200, Seed: 11, Replicas: 2,
			ErrorKinds: []string{"eio", "fsynclie"}, ErrorProb: 0.05,
		}); err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
	}
	if err := runCrash(crash.Spec{
		Engine: "lsm", Replicas: 2, ErrorKinds: []string{"gremlins"},
	}); err == nil {
		t.Fatal("unknown error kind should error")
	}
}

// TestEnginesListing pins the `ptsbench engines` output shape: every
// registered engine appears with at least one documented tunable.
func TestEnginesListing(t *testing.T) {
	var buf bytes.Buffer
	listEngines(&buf)
	out := buf.String()
	for _, name := range []string{"lsm", "btree", "betree"} {
		if !strings.Contains(out, name+"\n") {
			t.Fatalf("engine %q missing from listing:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "epsilon") || !strings.Contains(out, "memtable_bytes") {
		t.Fatalf("tunables missing from listing:\n%s", out)
	}
}
