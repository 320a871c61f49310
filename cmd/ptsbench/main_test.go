package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
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
	// docName is a pkg.Name or pkg.Type.Member reference that is not
	// part of a path.
	docName = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
)

// checkedDocs are the documents whose commands and names the doc tests
// keep resolving, relative to the repository root.
var checkedDocs = []string{"README.md", filepath.Join(".claude", "skills", "verify", "SKILL.md")}

// readDoc returns a document's fenced code blocks and the inline code
// spans outside them.
func readDoc(t *testing.T, doc string) (fenced, spans []string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", doc))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, m := range mdFence.FindAllStringSubmatch(text, -1) {
		fenced = append(fenced, m[1])
	}
	for _, m := range mdSpan.FindAllStringSubmatch(mdFence.ReplaceAllString(text, ""), -1) {
		spans = append(spans, m[1])
	}
	return fenced, spans
}

// TestDocCommandsResolve keeps the commands the docs tell a reader to
// run pointing at code that exists: in the fenced blocks and inline code
// of README.md and the verify skill, every `go run ./DIR` must name a
// directory holding a main package, and every `ptsbench WORD` a
// subcommand main dispatches. Commands for deleted programs are how
// unrun code used to go unnoticed.
func TestDocCommandsResolve(t *testing.T) {
	root := filepath.Join("..", "..")
	dispatched := dispatchedSubcommands(t)
	for _, doc := range checkedDocs {
		fenced, spans := readDoc(t, doc)
		runs, cmds := 0, 0
		for _, c := range append(fenced, spans...) {
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

// TestDocNamesResolve keeps the names the docs cite pointing at code
// that exists: every backticked pkg.Name or pkg.Type.Member in
// README.md and the verify skill whose pkg is a directory under
// internal/ must name a top-level declaration of that package's
// non-test files, or a method, field or interface method of one of its
// types. A Name is Go when it has an upper-case letter and no
// underscore: file names (`stack.go`) and the ledger's layer-prefixed
// metrics (`lsm.flushes`, `engine.put_ns`) are not. Renamed and deleted
// names are how stale docs used to survive.
func TestDocNamesResolve(t *testing.T) {
	names := declaredNames(nonTestFiles(t))
	for _, doc := range checkedDocs {
		_, spans := readDoc(t, doc)
		refs := 0
		for _, span := range spans {
			for _, m := range docName.FindAllStringSubmatch(span, -1) {
				if !names[m[1]] || strings.ToLower(m[2]) == m[2] || strings.Contains(m[2], "_") {
					continue
				}
				refs++
				ref := m[1] + "." + m[2]
				if m[3] != "" {
					ref += "." + m[3]
				}
				if !names[ref] {
					t.Errorf("%s: `%s` names nothing in internal/%s", doc, ref, m[1])
				}
			}
		}
		if refs == 0 {
			t.Errorf("%s: found no internal/ names; the scan is broken", doc)
		}
	}
}

// declaredNames is the set of names the docs may cite: each package
// under internal/ by its directory's base name ("pkg"), its top-level
// declarations ("pkg.Name"), and its types' methods, struct fields
// (embedded ones by type name) and interface methods ("pkg.Type.Member").
func declaredNames(files []sourceFile) map[string]bool {
	names := map[string]bool{}
	for _, sf := range files {
		if !strings.HasPrefix(sf.dir, "internal/") {
			continue
		}
		pkg := path.Base(sf.dir)
		names[pkg] = true
		eachTopLevelName(sf.f, func(id *ast.Ident, recv string) {
			if recv != "" {
				names[pkg+"."+recv+"."+id.Name] = true
			} else {
				names[pkg+"."+id.Name] = true
			}
		})
		ast.Inspect(sf.f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			var fields *ast.FieldList
			switch typ := ts.Type.(type) {
			case *ast.StructType:
				fields = typ.Fields
			case *ast.InterfaceType:
				fields = typ.Methods
			default:
				return false
			}
			for _, f := range fields.List {
				for _, id := range f.Names {
					names[pkg+"."+ts.Name.Name+"."+id.Name] = true
				}
				if len(f.Names) == 0 { // embedded: named by its type
					if id := typeIdent(f.Type); id != "" {
						names[pkg+"."+ts.Name.Name+"."+id] = true
					}
				}
			}
			return false
		})
	}
	return names
}

// typeIdent is the name of a (possibly pointer or qualified) type
// expression, "" for anything else.
func typeIdent(x ast.Expr) string {
	switch e := x.(type) {
	case *ast.StarExpr:
		return typeIdent(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// maxPanics is the number of panic calls non-test code outside
// benchmark/ may hold; ROADMAP tracks each one. Lower it when a site
// goes, never raise it to admit one.
const maxPanics = 15

// sourceFile is one parsed non-test Go file of the repository; dir is
// its directory relative to the repository root, slash-separated. builds
// is false when the file's name or its //go:build line leaves it out of
// this platform's build.
type sourceFile struct {
	dir    string
	f      *ast.File
	builds bool
}

// parseGo parses the file at rel (slash-separated, relative to the
// repository root) holding src.
func parseGo(rel string, src []byte) (sourceFile, error) {
	ctx := build.Default
	ctx.OpenFile = func(string) (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(src)), nil }
	builds, err := ctx.MatchFile(path.Dir(rel), path.Base(rel))
	if err != nil {
		return sourceFile{}, err
	}
	f, err := parser.ParseFile(walkFset, rel, src, 0)
	return sourceFile{dir: path.Dir(rel), f: f, builds: builds}, err
}

var (
	walkOnce  sync.Once
	walkFset  = token.NewFileSet()
	walkFiles []sourceFile
	walkErr   error
)

// nonTestFiles parses every non-test Go file in the repository,
// benchmark/ and files for other platforms included, once for all the
// tests that scan source.
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
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			sf, err := parseGo(filepath.ToSlash(rel), src)
			walkFiles = append(walkFiles, sf)
			return err
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

// stdCalls stands for the calls the standard library makes through
// interfaces (fmt's Stringer, error, errors.Unwrap, json's Marshaler and
// Unmarshaler, heap.Interface, flag.Value): no identifier in the repository names
// those methods, so uncalledNames type-checks this file beside the
// repository's and a type that implements one of the interfaces has its
// methods called.
const stdCalls = `package stdcalls

import (
	"container/heap"
	"encoding/json"
	"flag"
	"fmt"
)

func calls(s fmt.Stringer, e error, w interface{ Unwrap() error }, m json.Marshaler, u json.Unmarshaler, h heap.Interface, v flag.Value) {
	s.String()
	e.Error()
	w.Unwrap()
	m.MarshalJSON()
	u.UnmarshalJSON(nil)
	h.Len()
	h.Less(0, 0)
	h.Swap(0, 0)
	h.Push(nil)
	h.Pop()
	v.Set("")
}
`

// testSeams lists the names in internal/ and cmd/ that no non-test code uses,
// each with the test that reads it or the ROADMAP item that will give it
// a caller. TestExportedNamesHaveCallers fails on an uncalled
// name missing here and on an entry that has gained a caller or gone,
// so the map only shrinks.
var testSeams = map[string]string{
	"betree.Tree.BufferedBytes":     "TestBufferModel; ROADMAP 2(i) gauge",
	"cowtree.Core.Arena":            "arena bytes a put or a buffer upsert takes: btree's TestSteadyStatePutAllocs, betree's TestMessageCodecKinds",
	"cowtree.Core.Depth":            "both engines' Depth: TestGoldenEngineTrace; ROADMAP 2(i) gauge",
	"cowtree.Core.DirtyCount":       "TestFlushAllWritesEverything (btree, betree)",
	"cowtree.Core.JournalSyncCount": "both engines' journal sync count: TestGroupCommitSingleSync, benchmark's TestEngineShimGroupCommits",
	"cowtree.Core.NodeCount":        "both engines' leaf/interior counts: TestGoldenEngineTrace; ROADMAP 2(i) gauge",
	"extfs.FS.CapacityPages":        "TestFileExtentsCoverPages",
	"extfs.FS.FreePages":            "TestFileExtentsCoverPages, TestNoSpace",
	"extfs.File.Extents":            "TestTornMetaSlotRecovery, FuzzMetaDecode's garbleSlot",
	"faultdev.Dev.WriteLog":         "TestWriteLog, TestTornMetaSlotRecovery",
	"filedev.Dev.Fsyncs":            "TestCountersAndHist, TestDisciplines",
	"flash.Device.CheckInvariants":  "ROADMAP 5(1) stack.Check",
	"flash.Device.Config":           "TestStackDefaults: stack.openDevice's 256-page erase blocks",
	"flash.Device.MappedPages":      "TestTrimRange, blockdev's TestDiscardClearsContent",
	"flash.Device.MaxEraseCount":    "ROADMAP 8(a) wear report",
	"freeset.Set.Check":             "the allocators' differential tests (freeset, extfs, cowtree); ROADMAP 5(1) stack.Check",
	"kvtest.NewFaultyStack":         "TestEngineConformanceUnderEIO",
	"kvtest.NewFileStack":           "filedev's TestEngineConformanceOverFiles",
	"kvtest.Run":                    "the conformance suite every engine's tests run",
	"lsm.DB.LevelSizes":             "TestCompactionsHappenAndLevelsFill, TestPointLookupsAcrossLevels",
	"workload.OpWrite":              "the zero OpKind, named by the workload and fault-model tests",
}

// TestExportedNamesHaveCallers keeps surface honest: every exported
// top-level func, method, type, var and const in internal/ and cmd/, and
// every unexported func and method, must be used by some non-test file of the
// repository (benchmark/ and cmd/ count), or be listed in testSeams.
// uncalledNames says what counts as a use.
func TestExportedNamesHaveCallers(t *testing.T) {
	uncalled, err := uncalledNames(nonTestFiles(t))
	if err != nil {
		t.Fatal(err)
	}
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
		t.Errorf("%d names have no non-test caller; give each a caller, delete it, or list it in testSeams with a reason:\n%s",
			len(missing), strings.Join(missing, "\n"))
	}
	if len(stale) > 0 {
		t.Errorf("%d testSeams entries have a non-test caller now or no longer exist; delete them:\n%s",
			len(stale), strings.Join(stale, "\n"))
	}
}

// uncalledNames maps each top-level name declared under internal/ or
// cmd/ that no file in files uses ("pkg.Name", or "pkg.Type.Method" for
// a method, pkg being the directory under internal/, or cmd/ and the
// directory) to its declaration's position: every exported func,
// method, type, var and const, and every unexported func and method but
// init, and main in a main package.
// Only the files that build on this platform are read. They are
// type-checked (the standard library from source), so a use is an
// identifier that resolves to the declaration, a generic method's
// instances counting for it; a method's receiver is no use of its type,
// and a func's or method's own body is no use of it (two that only
// call each other still count as used). A method also counts as called when a method of the same
// name is called on an interface or through a type parameter's
// constraint and some type of files holds every method of that
// interface, the one called included, in its method set (embedding
// included); stdCalls adds the standard library's calls.
func uncalledNames(files []sourceFile) (map[string]string, error) {
	std, err := parser.ParseFile(walkFset, "stdcalls.go", stdCalls, 0)
	if err != nil {
		return nil, err
	}
	c := &typeChecker{
		byPath: map[string][]*ast.File{},
		pkgs:   map[string]*types.Package{},
		info:   &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
	}
	c.byPath["stdcalls"] = []*ast.File{std}
	files = slices.DeleteFunc(slices.Clone(files), func(sf sourceFile) bool { return !sf.builds })
	for _, sf := range files {
		c.byPath["ptsbench/"+sf.dir] = append(c.byPath["ptsbench/"+sf.dir], sf.f)
	}
	var named []*types.Named // every type the files declare
	for p := range c.byPath {
		pkg, err := c.Import(p)
		if err != nil {
			return nil, err
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && !tn.IsAlias() {
					named = append(named, n)
				}
			}
		}
	}

	inRecv := map[*ast.Ident]bool{}
	body := map[types.Object]*ast.BlockStmt{} // each func's and method's own body
	for _, sf := range files {
		for _, dl := range sf.f.Decls {
			fn, ok := dl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			body[c.info.Defs[fn.Name]] = fn.Body
			if fn.Recv != nil {
				ast.Inspect(fn.Recv, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						inRecv[id] = true
					}
					return true
				})
			}
		}
	}
	used := map[types.Object]bool{}
	var viaIface []*types.Func // interface methods called
	for id, obj := range c.info.Uses {
		if inRecv[id] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
			if b := body[obj]; b != nil && b.Pos() <= id.Pos() && id.Pos() < b.End() {
				continue
			}
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) && !used[obj] {
				viaIface = append(viaIface, fn)
			}
		}
		used[obj] = true
	}
	for _, im := range viaIface {
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		for _, n := range named {
			for _, t := range []types.Type{n, types.NewPointer(n)} {
				if holdsMethods(t, iface) {
					used[types.NewMethodSet(t).Lookup(im.Pkg(), im.Name()).Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}

	uncalled := map[string]string{}
	for _, sf := range files {
		pkg, ok := strings.CutPrefix(sf.dir, "internal/")
		if !ok && !strings.HasPrefix(sf.dir, "cmd/") {
			continue
		}
		isMain := sf.f.Name.Name == "main"
		eachTopLevelName(sf.f, func(id *ast.Ident, recv string) {
			obj := c.info.Defs[id]
			_, isFunc := obj.(*types.Func)
			entry := id.Name == "init" || isMain && id.Name == "main" && recv == ""
			if obj == nil || used[obj] || id.Name == "_" || entry || !id.IsExported() && !isFunc {
				return
			}
			key := pkg + "." + id.Name
			if recv != "" {
				key = pkg + "." + recv + "." + id.Name
			}
			uncalled[key] = walkFset.Position(id.Pos()).String()
		})
	}
	return uncalled, nil
}

// holdsMethods reports whether t's method set has every method of iface
// with an identical signature. An interface's type terms are not
// looked at, so a constraint matches by its methods alone.
func holdsMethods(t types.Type, iface *types.Interface) bool {
	ms := types.NewMethodSet(t)
	for i := 0; i < iface.NumMethods(); i++ {
		m := iface.Method(i)
		sel := ms.Lookup(m.Pkg(), m.Name())
		if sel == nil || !types.Identical(sel.Obj().Type(), m.Type()) {
			return false
		}
	}
	return true
}

// typeChecker type-checks the repository's packages on demand, as the
// importer of one another, into one types.Info; the standard library
// comes from stdImporter.
type typeChecker struct {
	byPath map[string][]*ast.File // import path -> files
	pkgs   map[string]*types.Package
	info   *types.Info
}

var (
	stdOnce     sync.Once
	stdImporter types.Importer
)

func (c *typeChecker) Import(path string) (*types.Package, error) {
	if pkg, ok := c.pkgs[path]; ok {
		return pkg, nil
	}
	files, ok := c.byPath[path]
	if !ok {
		stdOnce.Do(func() { stdImporter = importer.ForCompiler(walkFset, "source", nil) })
		return stdImporter.Import(path)
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, walkFset, files, c.info)
	c.pkgs[path] = pkg
	return pkg, err
}

// TestUncalledExportedRules pins what counts as a use on a small
// synthetic module: package a declares, cmd/b (a main package importing
// it as z) calls. Own is named by a's helper, so it is never listed; T
// is named only by its methods' receivers, which are no uses, so it is
// listed until another package names it. cmd/ is scanned too: b's main
// is exempt and calls f, and b's idle, which nothing calls, is always
// listed.
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
func spin(n int) { if n > 0 { spin(n - 1) } }
const Named = 1
type Shared struct{}
func (Shared) Called() {}
type Caller interface{ Called() }
type Base struct{}
func (*Base) Via() {}
type Outer struct{ *Base }
type Viaer interface{ Via() }
type Tuned struct{}
func (*Tuned) tuned() {}
func (*Tuned) idle()  {}
func Tune[C any, P interface{ *C; tuned() }](c C) { P(&c).tuned() }
type Box[E any] struct{ e E }
func (b Box[E]) Get() E { return b.e }
`
	// Listed in every case unless the case names one with a "-": what a
	// case's call adds is all that moves. Tuned.tuned is never listed,
	// Tuned.idle always: Tune calls only the first, through P's
	// constraint. spin, which only calls itself, is always listed.
	const base = "a.Base.Via a.Box a.Box.Get a.Caller a.Outer a.Shared a.Shared.Called a.Tune a.Tuned a.Tuned.idle a.Viaer a.helper a.spin cmd/b.idle"
	cases := []struct {
		name, body string
		want       string
	}{
		{"a selector from another package calls a func", "z.Used()",
			"a.Lonely a.Named a.T a.T.Called a.T.Uncalled a.U"},
		{"a method is called by type: a namesake on another type is no caller", "z.Shared{}.Called()",
			"a.Lonely a.Named a.T a.T.Called a.T.Uncalled a.U a.Used -a.Shared -a.Shared.Called"},
		{"a call through an interface calls its implementors' methods", "var c z.Caller; c.Called()",
			"a.Lonely a.Named a.T a.T.Uncalled a.U a.Used -a.Caller -a.Shared.Called"},
		{"a promoted method is called through an interface", "var v z.Viaer = z.Outer{}; v.Via()",
			"a.Lonely a.Named a.T a.T.Called a.T.Uncalled a.U a.Used -a.Base.Via -a.Outer -a.Viaer"},
		{"a generic func is called with its type arguments inferred", "z.Tune(z.Tuned{})",
			"a.Lonely a.Named a.T a.T.Called a.T.Uncalled a.U a.Used -a.Tune -a.Tuned"},
		{"a generic method is called through its instances", "_ = z.Box[int]{}.Get()",
			"a.Lonely a.Named a.T a.T.Called a.T.Uncalled a.U a.Used -a.Box -a.Box.Get"},
		{"a type and a const are called when selected", "var _ z.U; var _ z.T; _ = z.Named",
			"a.Lonely a.T.Called a.T.Uncalled a.Used"},
		{"a bare name in another package is no caller", "Lonely := 1; _ = Lonely; _ = z.Named",
			"a.Lonely a.T a.T.Called a.T.Uncalled a.U a.Used"},
	}
	// A file the build leaves out is in every case but not read, so its
	// calls count for nothing.
	ignored := parseSource(t, "cmd/b/b_other.go", "//go:build ignore\n\npackage main\nimport z \"ptsbench/internal/a\"\nfunc g() { z.Lonely(); z.T{}.Uncalled() }\n")
	if ignored.builds {
		t.Fatal("a //go:build ignore file builds")
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			files := []sourceFile{
				parseSource(t, "internal/a/a.go", lib),
				parseSource(t, "cmd/b/b.go", "package main\nimport z \"ptsbench/internal/a\"\nfunc main() { f() }\nfunc idle() {}\nfunc f() {\n"+c.body+"\n}\n"),
				ignored,
			}
			want := map[string]bool{}
			for _, key := range strings.Fields(base + " " + c.want) {
				if strings.HasPrefix(key, "-") {
					delete(want, key[1:])
				} else {
					want[key] = true
				}
			}
			uncalled, err := uncalledNames(files)
			if err != nil {
				t.Fatal(err)
			}
			var got, wanted []string
			for key := range uncalled {
				got = append(got, key)
			}
			for key := range want {
				wanted = append(wanted, key)
			}
			sort.Strings(got)
			sort.Strings(wanted)
			if !reflect.DeepEqual(got, wanted) {
				t.Fatalf("uncalled = %v, want %v", got, wanted)
			}
		})
	}
}

func parseSource(t *testing.T, rel, src string) sourceFile {
	t.Helper()
	sf, err := parseGo(rel, []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	return sf
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

// TestCrashReproLineParses feeds crash.ReproLine's output back through
// the crash subcommand's flags: each line must parse into the spec it
// was printed from, run as one trial at the printed seed, tunables
// included.
func TestCrashReproLineParses(t *testing.T) {
	for _, in := range []crash.Spec{
		{Engine: "lsm", Shards: 4, Ops: 300},
		{Engine: "btree", Tunables: map[string]string{"checkpoint_interval": "200us", "leaf_page_bytes": "4096"}},
		{Engine: "betree", Shards: 2, Keys: 64, CutShard: 1, CutWrite: 5, Tunables: map[string]string{"epsilon": "0.5"}},
		{Engine: "btree", Shards: 2, Replicas: 3, ReplMode: "quorum", Trials: 8, Seed: 4},
		{Engine: "lsm", Replicas: 2, ErrorKinds: []string{"eio", "fsynclie"}, ErrorProb: 0.1},
		{Engine: "lsm", Device: "file", Dir: t.TempDir()},
	} {
		want, err := in.Validate()
		if err != nil {
			t.Fatal(err)
		}
		want.Seed, want.Trials = 7, 1
		line := crash.ReproLine(want, want.Seed)
		args, ok := strings.CutPrefix(line, "ptsbench crash ")
		if !ok {
			t.Fatalf("repro line %q does not start with the subcommand", line)
		}
		parsed, err := parseCrashArgs(strings.Fields(args))
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		got, err := parsed.Validate()
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s\nparsed %+v\nwant   %+v", line, got, want)
		}
	}
	// The flag package prints its own errors; main prints only the
	// ones raised after parsing, so each error is printed once.
	for _, bad := range []struct {
		args    []string
		printed bool
	}{
		{[]string{"-engine", "lsm", "-tunable", "novalue"}, true},
		{[]string{"-engine", "lsm", "-nosuchflag"}, true},
		{[]string{"-engine", "lsm", "-cut-shard", "0"}, false},
		{[]string{"-shards", "2"}, false},
	} {
		_, err := parseCrashArgs(bad.args)
		if err == nil {
			t.Errorf("%v parsed", bad.args)
		} else if printed := errors.As(err, new(parsedError)); printed != bad.printed {
			t.Errorf("%v: %v counts as printed by the flag package: %v, want %v", bad.args, err, printed, bad.printed)
		}
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

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/engines.golden")

// TestEnginesGolden freezes `ptsbench engines` byte for byte: every
// engine's tunables, their order, kinds and doc lines. Regenerate with
//
//	go test ./cmd/ptsbench -run TestEnginesGolden -update-golden
//
// only for a deliberate change to a knob, and review the fixture diff.
func TestEnginesGolden(t *testing.T) {
	var buf bytes.Buffer
	listEngines(&buf)
	path := filepath.Join("testdata", "engines.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("`ptsbench engines` diverges from %s:\ngot:\n%s\nwant:\n%s", path, buf.Bytes(), want)
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
