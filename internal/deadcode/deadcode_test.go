// Package deadcode holds a tier-1 guard over the whole source tree: the
// module and the nested benchmark module are type-checked from source, test
// files left out, and two kinds of code that no program uses are refused.
//
//   - An exported function or method under internal/ that no non-test code
//     references. A method that implements a method of some interface is
//     exempt: it is called through the interface.
//   - An unexported struct field under internal/ that non-test code writes
//     (assignment, ++/--, composite-literal key) but never reads.
//
// Each exception to the first rule is named in allowlist with the reason it
// stays; an entry that names something gone, or something that has since
// gained a caller, is reported as stale. Accessors that only a package's
// own tests use belong in its accessors_test.go. The guard uses only the
// standard library.
package deadcode

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowlist names the exported functions and methods under internal/ that
// stay without a non-test caller, each with its reason. Keys are the import
// path below internal/, then the receiver's type name for a method, then the
// name.
var allowlist = map[string]string{
	// Methods on values the root facade hands to library users.
	"obs.Ring.Total":         "facade: smartharvest.EventRing returns *obs.Ring",
	"obs.Ring.Reset":         "facade: smartharvest.EventRing returns *obs.Ring",
	"obs.JSONL.Err":          "facade: smartharvest.TraceWriter returns *obs.JSONL; Err is its first write error",
	"check.Checker.Report":   "facade: smartharvest.NewChecker returns *check.Checker; Report is how a user reads it",
	"check.Report.First":     "facade: smartharvest.CheckReport is check.Report",
	"metrics.Welford.Count":  "facade: smartharvest.EventMetrics returns *obs.Metrics, whose summary fields are Welfords",
	"metrics.Welford.Min":    "facade: smartharvest.EventMetrics returns *obs.Metrics, whose summary fields are Welfords",
	"metrics.Welford.Max":    "facade: smartharvest.EventMetrics returns *obs.Metrics, whose summary fields are Welfords",
	"metrics.Welford.Stddev": "facade: smartharvest.EventMetrics returns *obs.Metrics, whose summary fields are Welfords",
	"harness.ScenarioError.Unwrap": "facade: smartharvest.ScenarioError; errors.Is and errors.As call Unwrap " +
		"through an interface literal of their own",

	// A reference implementation that tests compare the fast path against.
	"workload.NewTraceReplay": "reference: a TraceReplay of the eager sorted trace referees traces.Stream " +
		"arrival for arrival (TestStreamMatchesEagerReference)",

	// Inverses that round-trip and fuzz tests use to hold a format in place.
	"traces.Read":              "inverse of traces.Write: FuzzTraceRead and the round-trip tests hold the trace format with it",
	"experiments.Grid.Marshal": "inverse of ParseGrid: FuzzParseGrid and the grid round-trip tests hold the grid format with it",

	// Enum parsers that grammar's pin test pins beside their name tables.
	"sched.ParsePolicy":   "enum parser pinned by internal/grammar's pin test",
	"workload.ParseClass": "enum parser pinned by internal/grammar's pin test",

	// Generators of DESIGN.md §6.
	"obs.Schema":     "generates DESIGN.md §6's event table (TestDesignSchemaTable)",
	"obs.Field.Type": "renders the type column of DESIGN.md §6's event table",

	// Part of a contract the code honours, exercised by tests alone.
	"sim.Ticker.Stop": "no program stops a ticker, but tick honours a stop; sim's tests and " +
		"FuzzLoopOrder stop tickers to drain a loop",
}

// TestNoDeadCode is the guard itself.
func TestNoDeadCode(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := analyze(root, "smartharvest")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.problems(allowlist) {
		t.Error(p)
	}
}

// TestGuardCatchesPlantedFaults runs the same analysis over a fixture that
// plants each fault the guard exists to report: a dead exported func, a
// write-only unexported field, and two stale allowlist entries (one names a
// function that is gone, one a function that is now called).
func TestGuardCatchesPlantedFaults(t *testing.T) {
	rep, err := analyze(filepath.Join("testdata", "fixture"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	got := rep.problems(map[string]string{
		"dead.Gone":   "stale: names a function the fixture no longer has",
		"dead.Called": "stale: names a function a non-test caller now calls",
		"dead.Kept":   "a live entry: Kept has no caller",
	})
	want := []string{
		"dead.Dead: exported func with no non-test caller",
		"dead.Counter.hits: unexported field written but never read",
		"allowlist entry dead.Called is stale: it now has a non-test caller",
		"allowlist entry dead.Gone is stale: no such exported func or method",
	}
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("problems:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// report is what analyze found: every exported func or method under
// internal/ with whether some non-test code references it, and every
// unexported field under internal/ that non-test code writes but never
// reads.
type report struct {
	funcs     map[string]bool // name -> has a non-test reference
	writeOnly []string
}

// problems lists the guard's findings against allow, sorted.
func (r *report) problems(allow map[string]string) []string {
	var out []string
	for name, used := range r.funcs {
		if !used && allow[name] == "" {
			out = append(out, name+": exported func with no non-test caller")
		}
	}
	for _, name := range r.writeOnly {
		out = append(out, name+": unexported field written but never read")
	}
	for name, reason := range allow {
		used, ok := r.funcs[name]
		switch {
		case strings.TrimSpace(reason) == "":
			out = append(out, "allowlist entry "+name+" gives no reason")
		case !ok:
			out = append(out, "allowlist entry "+name+" is stale: no such exported func or method")
		case used:
			out = append(out, "allowlist entry "+name+" is stale: it now has a non-test caller")
		}
	}
	sort.Strings(out)
	return out
}

// pkg is one parsed, not yet type-checked, package directory.
type pkg struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// analyze type-checks every non-test package under root, whose import paths
// start at modPath, and reports on the ones under modPath/internal/.
func analyze(root, modPath string) (*report, error) {
	fset := token.NewFileSet()
	pkgs := map[string]*pkg{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		p := &pkg{path: filepath.ToSlash(filepath.Join(modPath, rel))}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			ok, err := build.Default.MatchFile(path, name)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if len(p.files) > 0 {
			pkgs[p.path] = p
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	imp := &sourceImporter{fset: fset, pkgs: pkgs, std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)}
	paths := make([]string, 0, len(pkgs))
	for path := range pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := imp.Import(path); err != nil {
			return nil, err
		}
	}

	internal := modPath + "/internal/"
	under := func(obj types.Object) bool {
		return obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), internal)
	}
	name := func(obj types.Object, recv string) string {
		n := strings.TrimPrefix(obj.Pkg().Path(), internal) + "."
		if recv != "" {
			n += recv + "."
		}
		return n + obj.Name()
	}
	viaInterface := interfaceMethods(pkgs)

	// Declarations: exported funcs and methods, unexported named fields.
	decls := map[*types.Func]string{}
	fields := map[*types.Var]string{}
	for _, path := range paths {
		p := pkgs[path]
		if !strings.HasPrefix(path, internal) {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				if viaInterface[fn] {
					continue
				}
				recv := ""
				if fd.Recv != nil {
					recv = recvNamed(fn.Type().(*types.Signature).Recv().Type()).Obj().Name()
				}
				decls[fn] = name(fn, recv)
			}
			structFields(f, func(typeName string, id *ast.Ident) {
				if v, ok := p.info.Defs[id].(*types.Var); ok && !v.Exported() && v.Name() != "_" {
					fields[v] = name(v, typeName)
				}
			})
		}
	}

	// References from every non-test package, the benchmark's included.
	called := map[*types.Func]bool{}
	read := map[*types.Var]bool{}
	written := map[*types.Var]bool{}
	for _, path := range paths {
		p := pkgs[path]
		for _, f := range p.files {
			writes := writeTargets(f)
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					switch obj := p.info.Uses[id].(type) {
					case *types.Func:
						if obj = obj.Origin(); obj != self && under(obj) {
							called[obj] = true
						}
					case *types.Var:
						if obj = obj.Origin(); obj.IsField() && under(obj) {
							if writes[id] {
								written[obj] = true
							} else {
								read[obj] = true
							}
						}
					}
					return true
				})
			}
		}
	}

	rep := &report{funcs: map[string]bool{}}
	for fn, n := range decls {
		rep.funcs[n] = called[fn]
	}
	for v, n := range fields {
		if written[v] && !read[v] {
			rep.writeOnly = append(rep.writeOnly, n)
		}
	}
	sort.Strings(rep.writeOnly)
	return rep, nil
}

// writeTargets returns the identifiers in f that name a field only as the
// target of a store: the selector of an assignment's left-hand side or of an
// ++/-- statement, and the key of a struct literal. A compound assignment
// (+=) counts as a store alone, so a field that is only ever bumped is
// write-only.
func writeTargets(f *ast.File) map[*ast.Ident]bool {
	w := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			w[s.Sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				target(e)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						w[id] = true
					}
				}
			}
		}
		return true
	})
	return w
}

// structFields calls fn for each named field of each struct type in f, with
// the name of the type declaration that encloses it.
func structFields(f *ast.File, fn func(typeName string, id *ast.Ident)) {
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		ast.Inspect(spec.Type, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						fn(spec.Name.Name, id)
					}
				}
			}
			return true
		})
		return false
	})
}

// recvNamed is the named type of a method receiver, through a pointer.
func recvNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// interfaceMethods returns the methods, declared in the checked packages,
// that some interface reaches: for every non-generic named type T declared
// in pkgs and every interface I that T or *T implements, the method that
// each of I's methods selects on *T, promoted through embedding or not. The
// interfaces are the package-level ones of pkgs and of everything they
// import, the standard library's included, error, and the interface
// literals the checked code spells out.
func interfaceMethods(pkgs map[string]*pkg) map[*types.Func]bool {
	var ifaces []*types.Interface
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			if named, ok := t.(*types.Named); !ok || named.TypeParams().Len() == 0 {
				ifaces = append(ifaces, it)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, dep := range tp.Imports() {
			visit(dep)
		}
	}
	var named []*types.Named
	for _, p := range pkgs {
		visit(p.types)
		for _, tv := range p.info.Types {
			if _, ok := tv.Type.(*types.Interface); ok {
				add(tv.Type)
			}
		}
		for _, obj := range p.info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 && !types.IsInterface(n) {
					named = append(named, n)
				}
			}
		}
	}

	out := map[*types.Func]bool{}
	for _, n := range named {
		ptr := types.NewPointer(n)
		mset := types.NewMethodSet(ptr)
		has := make(map[string]bool, mset.Len())
		for i := 0; i < mset.Len(); i++ {
			has[mset.At(i).Obj().Name()] = true
		}
	next:
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if !has[it.Method(i).Name()] {
					continue next
				}
			}
			if !types.Implements(ptr, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if fn, ok := mset.Lookup(m.Pkg(), m.Name()).Obj().(*types.Func); ok {
					out[fn.Origin()] = true
				}
			}
		}
	}
	return out
}

// sourceImporter type-checks the tree's own packages from the parsed files
// on first import, and the standard library from GOROOT's source.
type sourceImporter struct {
	fset *token.FileSet
	pkgs map[string]*pkg
	std  types.ImporterFrom
}

func (s *sourceImporter) Import(path string) (*types.Package, error) {
	p, ok := s.pkgs[path]
	if !ok {
		return s.std.ImportFrom(path, "", 0)
	}
	if p.types != nil {
		return p.types, nil
	}
	p.info = &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: s}
	tp, err := conf.Check(path, s.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	p.types = tp
	return tp, nil
}
