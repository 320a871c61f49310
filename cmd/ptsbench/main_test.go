package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	data, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var results []*core.Result
	if err := json.Unmarshal(data, &results); err != nil {
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
const maxPanics = 17

// sourceFile is one parsed non-test Go file of the repository; dir is
// its directory relative to the repository root, slash-separated.
type sourceFile struct {
	dir string
	f   *ast.File
}

var (
	walkOnce  sync.Once
	walkFset  = token.NewFileSet()
	walkFiles []sourceFile
	walkErr   error
)

// nonTestFiles parses every non-test Go file in the repository,
// benchmark/ included, once for all the tests that scan source.
func nonTestFiles(t *testing.T) []sourceFile {
	t.Helper()
	walkOnce.Do(func() {
		root := filepath.Join("..", "..")
		walkErr = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(walkFset, path, nil, 0)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			walkFiles = append(walkFiles, sourceFile{dir: filepath.ToSlash(rel), f: f})
			return nil
		})
	})
	if walkErr != nil {
		t.Fatal(walkErr)
	}
	return walkFiles
}

// TestPanicSitesRatchet counts the panic(...) calls in every non-test Go
// file outside benchmark/ and fails when there are more than maxPanics,
// naming each site.
func TestPanicSitesRatchet(t *testing.T) {
	var sites []string
	for _, sf := range nonTestFiles(t) {
		if sf.dir == "benchmark" || strings.HasPrefix(sf.dir, "benchmark/") {
			continue
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					sites = append(sites, walkFset.Position(call.Pos()).String())
				}
			}
			return true
		})
	}
	if len(sites) > maxPanics {
		t.Errorf("%d panic sites in non-test code outside benchmark/, at most %d allowed:\n%s",
			len(sites), maxPanics, strings.Join(sites, "\n"))
	}
}

// interfaceMethods are method names a type exports to satisfy a standard
// interface (fmt.Stringer, error, json, sort, heap); the runtime or the
// standard library calls them, so no caller in the repository names them.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
}

// testSeams lists the exported names in internal/ that no non-test code
// names, each with the test that reads it or the ROADMAP item that will
// give it a caller. TestExportedNamesHaveCallers fails on an uncalled
// name missing here and on an entry that has gained a caller or gone,
// so the map only shrinks.
var testSeams = map[string]string{
	"betree.Tree.BufferedBytes":    "TestBufferModel; ROADMAP 2(i) gauge",
	"betree.Tree.Depth":            "TestGoldenEngineTrace; ROADMAP 2(i) gauge",
	"betree.Tree.NodeCount":        "TestGoldenEngineTrace; ROADMAP 2(i) gauge",
	"btree.Tree.Depth":             "TestGoldenEngineTrace; ROADMAP 2(i) gauge",
	"btree.Tree.PageCount":         "TestGoldenEngineTrace; ROADMAP 2(i) gauge",
	"core.SteadyByCapacityRule":    "ROADMAP 7(a) steady-state note",
	"core.SteadyStateIndex":        "ROADMAP 7(a) steady-state note",
	"cowtree.Core.DirtyCount":      "TestFlushAllWritesEverything (btree, betree)",
	"extfs.FS.CapacityPages":       "TestFileExtentsCoverPages",
	"extfs.FS.FreePages":           "TestFileExtentsCoverPages, TestNoSpace",
	"extfs.File.Extents":           "TestTornMetaSlotRecovery, FuzzMetaDecode's garbleSlot",
	"faultdev.Dev.WriteLog":        "TestWriteLog, TestTornMetaSlotRecovery",
	"filedev.Dev.Fsyncs":           "TestCountersAndHist, TestDisciplines",
	"flash.Device.CheckInvariants": "ROADMAP 5(1) stack.Check",
	"flash.Device.MappedPages":     "TestTrimRange, blockdev's TestDiscardClearsContent",
	"flash.Device.MaxEraseCount":   "ROADMAP 8(a) wear report",
	"flash.GCGreedy":               "the zero GCPolicy, named by BenchmarkAblationGCPolicy",
	"kvtest.NewFaultyStack":        "TestEngineConformanceUnderEIO",
	"kvtest.NewFileStack":          "filedev's TestEngineConformanceOverFiles",
	"kvtest.Run":                   "the conformance suite every engine's tests run",
	"lsm.DB.LevelSizes":            "TestCompactionsHappenAndLevelsFill, TestPointLookupsAcrossKeyWidths",
	"workload.OpWrite":             "the zero OpKind, named by the workload and fault-model tests",
}

// TestExportedNamesHaveCallers keeps exported surface honest: every
// exported top-level func, method, type, var and const in internal/ must
// be named by some non-test file of the repository (benchmark/ and cmd/
// count), or be listed in testSeams.
func TestExportedNamesHaveCallers(t *testing.T) {
	uncalled := uncalledExported(nonTestFiles(t))
	var missing, stale []string
	for key, pos := range uncalled {
		if _, ok := testSeams[key]; !ok {
			missing = append(missing, pos+": "+key)
		}
	}
	for key, reason := range testSeams {
		if _, ok := uncalled[key]; !ok {
			stale = append(stale, key)
		}
		if reason == "" {
			t.Errorf("testSeams[%q] gives no reason", key)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 {
		t.Errorf("%d exported names have no non-test caller; give each a caller, delete it, or list it in testSeams with a reason:\n%s",
			len(missing), strings.Join(missing, "\n"))
	}
	if len(stale) > 0 {
		t.Errorf("%d testSeams entries have a non-test caller now or no longer exist; delete them:\n%s",
			len(stale), strings.Join(stale, "\n"))
	}
}

// uncalledExported maps each exported top-level name declared under
// internal/ that no file in files names ("pkg.Name", or "pkg.Type.Method"
// for a method) to its declaration's position. A package-level name is
// called when another package selects it (pkg.Name) or its own package
// names it outside its declaration; a method, when any selector names
// it. Methods in interfaceMethods are not listed.
func uncalledExported(files []sourceFile) map[string]string {
	type decl struct{ key, pkgDir, name, method, pos string }
	var decls []decl
	pkgName := map[string]string{} // import path -> package name
	for _, sf := range files {
		pkgName["ptsbench/"+sf.dir] = sf.f.Name.Name
		if !strings.HasPrefix(sf.dir, "internal/") {
			continue
		}
		pkg := strings.TrimPrefix(sf.dir, "internal/")
		eachTopLevelName(sf.f, func(id *ast.Ident, recv string) {
			if !id.IsExported() || (recv != "" && interfaceMethods[id.Name]) {
				return
			}
			d := decl{key: pkg + "." + id.Name, pkgDir: sf.dir, name: id.Name, pos: walkFset.Position(id.Pos()).String()}
			if recv != "" {
				d.key, d.name, d.method = pkg+"."+recv+"."+id.Name, "", id.Name
			}
			decls = append(decls, d)
		})
	}

	// What the files name: selectors by the package they select from (""
	// for any selector), bare identifiers by the directory naming them.
	selected := map[[2]string]bool{} // {import path or "", name}
	bare := map[[2]string]bool{}     // {dir, name}
	for _, sf := range files {
		imports := map[string]string{} // local name -> import path
		for _, imp := range sf.f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			local := pkgName[path]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			if local != "" {
				imports[local] = path
			}
		}
		declared := map[*ast.Ident]bool{}
		eachTopLevelName(sf.f, func(id *ast.Ident, _ string) { declared[id] = true })
		sels := map[*ast.Ident]bool{}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				sels[n.Sel] = true
				selected[[2]string{"", n.Sel.Name}] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					selected[[2]string{imports[x.Name], n.Sel.Name}] = true
				}
			case *ast.Ident:
				if !sels[n] && !declared[n] {
					bare[[2]string{sf.dir, n.Name}] = true
				}
			}
			return true
		})
	}

	uncalled := map[string]string{}
	for _, d := range decls {
		var called bool
		if d.method != "" {
			called = selected[[2]string{"", d.method}]
		} else {
			called = selected[[2]string{"ptsbench/" + d.pkgDir, d.name}] || bare[[2]string{d.pkgDir, d.name}]
		}
		if !called {
			uncalled[d.key] = d.pos
		}
	}
	return uncalled
}

// TestUncalledExportedRules pins what counts as a caller on a small
// synthetic module: package a declares, package b (importing it as z)
// calls. Own is named by a's helper and T by its methods' receivers, so
// neither is ever listed.
func TestUncalledExportedRules(t *testing.T) {
	lib := `package a
type T struct{}
func (T) Called()        {}
func (T) Uncalled()      {}
func (T) String() string { return "" }
type U struct{}
func Used()   {}
func Own()    {}
func Lonely() {}
func helper() { Own() }
const Named = 1
`
	cases := []struct {
		name, body string
		want       string
	}{
		{"a selector from another package calls a func", "z.Used()",
			"a.Lonely a.Named a.T.Called a.T.Uncalled a.U"},
		{"any selector calls a method", "var x struct{ Called int }; _ = x.Called",
			"a.Lonely a.Named a.T.Uncalled a.U a.Used"},
		{"a type and a const are called when selected", "var _ z.U; _ = z.Named",
			"a.Lonely a.T.Called a.T.Uncalled a.Used"},
		{"a bare name in another package is no caller", "Lonely := 1; _ = Lonely",
			"a.Lonely a.Named a.T.Called a.T.Uncalled a.U a.Used"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			files := []sourceFile{
				parseSource(t, "internal/a", lib),
				parseSource(t, "cmd/b", "package b\nimport z \"ptsbench/internal/a\"\nfunc f() {\n"+c.body+"\n}\n"),
			}
			var got []string
			for key := range uncalledExported(files) {
				got = append(got, key)
			}
			sort.Strings(got)
			if strings.Join(got, " ") != c.want {
				t.Fatalf("uncalled = %v, want %s", got, c.want)
			}
		})
	}
}

func parseSource(t *testing.T, dir, src string) sourceFile {
	t.Helper()
	f, err := parser.ParseFile(walkFset, dir+"/x.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	return sourceFile{dir: dir, f: f}
}

// eachTopLevelName calls fn with every name a file declares at top level
// and, for a method, its receiver type.
func eachTopLevelName(f *ast.File, fn func(id *ast.Ident, recv string)) {
	for _, dl := range f.Decls {
		switch dl := dl.(type) {
		case *ast.FuncDecl:
			fn(dl.Name, receiverType(dl))
		case *ast.GenDecl:
			for _, spec := range dl.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					fn(s.Name, "")
				case *ast.ValueSpec:
					for _, id := range s.Names {
						fn(id, "")
					}
				}
			}
		}
	}
}

// receiverType names a method's receiver type ("" for a plain func).
func receiverType(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	x := fn.Recv.List[0].Type
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
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
