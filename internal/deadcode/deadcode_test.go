// Package deadcode holds a tier-1 guard over the whole source tree: the
// module and the nested benchmark module are type-checked from source, test
// files left out, and four kinds of code are refused.
//
//   - An exported function or method under internal/ that no non-test code
//     references. A method that implements a method of some interface is
//     exempt: it is called through the interface.
//   - An unexported struct field under internal/ that non-test code writes
//     (assignment, ++/--, composite-literal key) but never reads; taking
//     its address (&x.f) counts as a read.
//   - A zero-to-default substitution under internal/ on an exported field
//     F of a struct under internal/, in any of three forms: an if that
//     tests x.F against its zero value (== or <= 0, nil, "", T{} or
//     len(x.F) == 0) and stores into x.F; an if that stores x.F elsewhere
//     only when it is non-zero (!= or > its zero value); and any
//     cmp.Or(x.F, ...).
//   - An exported field of a config struct under internal/ (a type whose
//     name ends in Config, Options or Policy, and harness.Scenario) that no
//     non-test code sets outside its own package's default functions
//     (Default*, applyDefaults, withDefaults). A store, a composite-literal
//     key and &x.F (a flag binding) set it; so does decoding text into a
//     struct that reaches it (encoding/json, grammar.New). A knob only
//     tests set should be a constant.
//
// Each exception to the first rule is named in allowlist, each to the third
// in defaults and each to the fourth in knobs, with the reason it stays; an
// entry that names something gone, or something that has since gained a
// caller, lost its substitution or gained a writer, is reported as stale.
// Accessors that only a package's own tests use belong in its
// accessors_test.go. The guard uses only the standard library.
//
// TestRatchet (ratchet_test.go) holds the tree's size to
// testdata/ratchet.json: the non-test lines of each package directory,
// DESIGN.md and README.md, and the entries of the three allowlists may
// fall but not rise.
package deadcode

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
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

// defaults names each site under internal/ where non-test code still
// replaces the zero value of an exported field with a default, with the
// caller that leaves the field zero and so keeps the substitution. Keys are
// the field (the import path below internal/, the struct's type name and
// the field's name), " in ", and the function that substitutes it (the
// import path below internal/, the receiver's type name for a method, and
// the name). Every default is stated once: where two packages fill the same
// knob, the second takes its value from the first.
var defaults = map[string]string{
	// benchmark/workloads.go builds these literals and cannot change with
	// this tree; a zero there must keep meaning what it meant.
	"harness.Scenario.Window in harness.Scenario.applyDefaults":       "benchmark/workloads.go singleScenario leaves it zero; the value is core.DefaultConfig's",
	"harness.Scenario.PollInterval in harness.Scenario.applyDefaults": "benchmark/workloads.go singleScenario leaves it zero; the value is core.DefaultConfig's",
	"harness.Scenario.QoSWaitThreshold in harness.Run":                "benchmark/workloads.go singleScenario leaves it zero; the agent keeps core.DefaultConfig's",
	"harness.Scenario.QoSViolationFrac in harness.Run":                "benchmark/workloads.go singleScenario leaves it zero; the agent keeps core.DefaultConfig's",
	"cluster.Config.Controller in cluster.Config.applyDefaults": "benchmark/workloads.go fleetConfig leaves it nil; the value is harness.SmartHarvestFactory's, " +
		"as for a nil harness.Scenario.Controller",
	"cluster.Config.Observer in sched.Run": "benchmark/workloads.go fleetConfig leaves it nil; sched then emits its job events into obs.NopObserver",
	"core.SmartHarvestOptions.LearningRate in core.NewSmartHarvest": "benchmark/workloads.go smartHarvest passes SmartHarvestOptions{}; " +
		"the value is learner.DefaultLR",
	"core.SmartHarvestOptions.Cost in core.NewSmartHarvest": "benchmark/workloads.go smartHarvest passes SmartHarvestOptions{}",

	// Seeds start at 1 everywhere; --seed reaches 0 through benchmark/'s
	// seed+pair.
	"harness.Scenario.Seed in harness.Scenario.applyDefaults":   "benchmark/main.go --seed: benchmark/workloads.go runSingle sets seed+pair, which may be 0",
	"cluster.Config.Seed in cluster.Config.applyDefaults":       "benchmark/main.go --seed: benchmark/workloads.go fleetConfig sets seed+pair, which may be 0",
	"memharvest.Config.Seed in memharvest.Config.applyDefaults": "experiments.MemHarvest passes its run's seed; seeds start at 1, as for harness.Scenario.Seed and cluster.Config.Seed",
	"harness.Scenario.Controller in harness.Scenario.applyDefaults": "root facade: smartharvest.Scenario's documented minimal run leaves it nil; " +
		"nil runs the same harness.SmartHarvestFactory controller as a nil cluster.Config.Controller",

	// Production callers in this tree that leave the field zero.
	"cluster.Config.Workloads in cluster.Config.applyDefaults": "experiments.schedFleet leaves it nil without a -tenants class",
	"sched.Config.Jobs in sched.Config.applyDefaults":          "experiments.Sched, FleetChaos and Market leave it empty",
	"hostcg.Config.ProcRoot in hostcg.Config.applyDefaults":    "cmd/hostagent leaves it unset: /proc",
	"hostcg.Config.OS in hostcg.Config.applyDefaults":          "cmd/hostagent leaves it unset: RealOS",
	"workload.ServerConfig.Fanout in workload.NewServer":       "every apps primary but IndexServe leaves it nil: one subtask a request",
	"market.PoolSpec.Size in market.PoolSpec.withDefaults":     "-pools grammar: a pool without size=, as in benchmark/workloads.go balancedPools, holds Reserved x 10 s",
	"market.PoolSpec.Price in market.PoolSpec.withDefaults":    "-pools grammar: a pool without price=, as in benchmark/workloads.go balancedPools, sells at 1",
	"experiments.GridRun.ID in experiments.Resolve":            "grid grammar and cmd/experiments' positional ids: a run without an id takes its experiment's name",
}

// knobs names each exported field of a config struct under internal/ that
// no non-test code sets outside its package's default functions, with the
// reason it stays settable. Keys are the import path below internal/, the
// struct's type name and the field's name.
var knobs = map[string]string{
	// The machine's calibration. DefaultConfig's values are the paper's
	// evaluation; hypervisor's own tests zero them for exact queueing
	// checks, and the calibration and sensitivity work (ROADMAP items 14
	// and 18) varies them.
	"hypervisor.Config.SchedPeriod":         calibration,
	"hypervisor.Config.IdleRebalancePeriod": calibration,
	"hypervisor.Config.HypercallLatency":    calibration,
	"hypervisor.Config.CpuGroupsHypercalls": calibration,
	"hypervisor.Config.IPIEffectMean":       calibration,
	"hypervisor.Config.IPIEffectP99":        calibration,
	"hypervisor.Config.DispatchOverheadMin": calibration,
	"hypervisor.Config.DispatchOverheadMax": calibration,

	// Arguments of a DefaultConfig: its callers choose them.
	"core.Config.ElasticMin":       "core.DefaultConfig(primaryAlloc, elasticMin) takes it from its caller",
	"hypervisor.Config.TotalCores": "hypervisor.DefaultConfig(totalCores) takes it from its caller",

	// Read by benchmark/probes.go, which binds its checker from them and
	// cannot change with this tree.
	"core.Config.HarvestPause":           "benchmark/probes.go reads it",
	"core.ResiliencePolicy.MaxRetries":   "benchmark/probes.go reads it",
	"core.ResiliencePolicy.RetryBackoff": "benchmark/probes.go reads it",
	"core.ResiliencePolicy.Probation":    "benchmark/probes.go reads it",

	"core.Config.QoSConsecutive": "the paper trips on 2 consecutive bad windows, core.DefaultConfig on 1; " +
		"ROADMAP items 5a and 9 settle which",
	"hostcg.Config.ProcRoot": "the fake-OS seam: hostcg's tests point it at a fake procfs",
	"hostcg.Config.OS":       "the fake-OS seam: hostcg's tests replace the real file system",
}

// calibration is the reason the hypervisor's calibration fields stay
// settable.
const calibration = "calibration: hypervisor's tests zero it for exact queueing checks, " +
	"and ROADMAP items 14 and 18 vary it"

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
	for _, p := range rep.problems(allowlist, defaults, knobs) {
		t.Error(p)
	}
}

// TestGuardCatchesPlantedFaults runs the same analysis over a fixture that
// plants each fault the guard exists to report: a dead exported func, a
// write-only unexported field, each form of zero-to-default substitution,
// two stale allowlist entries (one names a function that is gone, one a
// function that is now called), a stale defaults entry, a config field
// only tests set, one only its package's defaults set, and two stale
// knobs entries. It must let pass a field set through its address and
// fields decoded from JSON.
func TestGuardCatchesPlantedFaults(t *testing.T) {
	rep, err := analyze(filepath.Join("testdata", "fixture"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	got := rep.problems(map[string]string{
		"dead.Gone":   "stale: names a function the fixture no longer has",
		"dead.Called": "stale: names a function a non-test caller now calls",
		"dead.Kept":   "a live entry: Kept has no caller",
	}, map[string]string{
		"dead.Config.Seed in dead.Config.Resolve":  "a live entry: the fixture's program leaves Seed zero",
		"dead.Config.Width in dead.Config.Resolve": "stale: Width is taken literally",
	}, map[string]string{
		"dead.Options.Kept": "a live entry: nothing sets Kept",
		"dead.Options.Set":  "stale: the program sets Set",
		"dead.Options.Gone": "stale: names a field the fixture no longer has",
	})
	want := []string{
		"dead.Dead: exported func with no non-test caller",
		"dead.Counter.hits: unexported field written but never read",
		"allowlist entry dead.Called is stale: it now has a non-test caller",
		"allowlist entry dead.Gone is stale: no such exported func or method",
		"dead.Config.Rate in dead.Config.Resolve: zero replaced by a default (if x.F == zero { x.F = ... })",
		"dead.Config.Limit in dead.Config.Resolve: zero replaced by a default (if x.F == zero { x.F = ... })",
		"dead.Config.Tags in dead.Config.Resolve: zero replaced by a default (if x.F == zero { x.F = ... })",
		"dead.Config.Scale in dead.Config.Resolve: copied only when non-zero (if x.F != zero { y = x.F })",
		"dead.Config.Name in dead.Config.Resolve: zero replaced by a default (cmp.Or(x.F, ...))",
		"defaults entry dead.Config.Width in dead.Config.Resolve is stale: no zero-to-default substitution there",
		"dead.Options.Filled: exported config field with no non-test writer outside its package's defaults",
		"dead.Options.OnlyTests: exported config field with no non-test writer outside its package's defaults",
		"knobs entry dead.Options.Set is stale: non-test code now sets it",
		"knobs entry dead.Options.Gone is stale: no such exported config field",
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
	// substituted maps each site of a zero-to-default substitution (a
	// field in a function) to the forms found there, each form once.
	substituted map[string][]string
	// knobs maps every exported field of a config struct under internal/
	// to whether non-test code sets it outside its package's default
	// functions.
	knobs map[string]bool
}

// problems lists the guard's findings against allow, defs and kept (the
// allowlists of the first, third and fourth rules), sorted.
func (r *report) problems(allow, defs, kept map[string]string) []string {
	var out []string
	for name, isSet := range r.knobs {
		if !isSet && kept[name] == "" {
			out = append(out, name+": exported config field with no non-test writer outside its package's defaults")
		}
	}
	for name, reason := range kept {
		isSet, ok := r.knobs[name]
		switch {
		case strings.TrimSpace(reason) == "":
			out = append(out, "knobs entry "+name+" gives no reason")
		case !ok:
			out = append(out, "knobs entry "+name+" is stale: no such exported config field")
		case isSet:
			out = append(out, "knobs entry "+name+" is stale: non-test code now sets it")
		}
	}
	for site, forms := range r.substituted {
		if defs[site] == "" {
			for _, form := range forms {
				out = append(out, site+": "+form)
			}
		}
	}
	for name, reason := range defs {
		switch {
		case strings.TrimSpace(reason) == "":
			out = append(out, "defaults entry "+name+" gives no reason")
		case r.substituted[name] == nil:
			out = append(out, "defaults entry "+name+" is stale: no zero-to-default substitution there")
		}
	}
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

	// Declarations: exported funcs and methods, unexported named fields,
	// exported named fields, and the exported fields of config structs.
	decls := map[*types.Func]string{}
	fields := map[*types.Var]string{}
	exported := map[*types.Var]string{}
	knobs := map[*types.Var]string{}
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
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok || !configType(strings.TrimPrefix(path, internal), ts.Name.Name) {
						continue
					}
					if st, ok := p.info.Defs[ts.Name].Type().Underlying().(*types.Struct); ok {
						for i := 0; i < st.NumFields(); i++ {
							if v := st.Field(i); v.Exported() {
								knobs[v] = name(v, ts.Name.Name)
							}
						}
					}
				}
			}
			structFields(f, func(typeName string, id *ast.Ident) {
				v, ok := p.info.Defs[id].(*types.Var)
				switch {
				case !ok || v.Name() == "_":
				case v.Exported():
					exported[v] = name(v, typeName)
				default:
					fields[v] = name(v, typeName)
				}
			})
		}
	}

	// References from every non-test package, the benchmark's included.
	// set holds the fields some code stores into, or takes the address
	// of, outside their own package's default functions.
	called := map[*types.Func]bool{}
	read := map[*types.Var]bool{}
	written := map[*types.Var]bool{}
	set := map[*types.Var]bool{}
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
							acc := writes[id]
							if acc == store {
								written[obj] = true
							} else {
								read[obj] = true
							}
							if acc != 0 && !(self != nil && self.Pkg() == obj.Pkg() && defaultFunc(self.Name())) {
								set[obj] = true
							}
						}
					}
					return true
				})
			}
		}
		decodedFields(p.info, modPath+"/internal/grammar", set)
	}

	rep := &report{funcs: map[string]bool{}, substituted: map[string][]string{}, knobs: map[string]bool{}}
	for _, path := range paths {
		p := pkgs[path]
		if !strings.HasPrefix(path, internal) {
			continue
		}
		for _, f := range p.files {
			substitutions(p.info, f, strings.TrimPrefix(path, internal), exported, func(site, form string) {
				if !slices.Contains(rep.substituted[site], form) {
					rep.substituted[site] = append(rep.substituted[site], form)
				}
			})
		}
	}
	for fn, n := range decls {
		rep.funcs[n] = called[fn]
	}
	for v, n := range fields {
		if written[v] && !read[v] {
			rep.writeOnly = append(rep.writeOnly, n)
		}
	}
	sort.Strings(rep.writeOnly)
	for v, n := range knobs {
		rep.knobs[n] = set[v]
	}
	return rep, nil
}

// configType reports whether the struct type name, declared in the package
// scope below internal/, holds settable configuration: its name ends in
// Config, Options or Policy, or it is harness.Scenario.
func configType(scope, name string) bool {
	return strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") ||
		strings.HasSuffix(name, "Policy") || scope+"."+name == "harness.Scenario"
}

// defaultFunc reports whether a function of this name fills its package's
// defaults, so that its stores set nothing a caller chose.
func defaultFunc(name string) bool {
	return strings.HasPrefix(name, "Default") || name == "applyDefaults" || name == "withDefaults"
}

// decodedFields adds to set every field of every struct that the package
// behind info decodes from text, and of the structs those reach: the
// targets of encoding/json's Unmarshal and Decoder.Decode, and the type
// argument of each instance of the generic New in grammarPath.
func decodedFields(info *types.Info, grammarPath string, set map[*types.Var]bool) {
	var decode func(t types.Type)
	decode = func(t types.Type) {
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			decode(u.Elem())
		case *types.Slice:
			decode(u.Elem())
		case *types.Array:
			decode(u.Elem())
		case *types.Map:
			decode(u.Elem())
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				if v := u.Field(i); !set[v] {
					set[v] = true
					decode(v.Type())
				}
			}
		}
	}
	for id, inst := range info.Instances {
		if fn, ok := info.Uses[id].(*types.Func); ok && fn.Name() == "New" && fn.Pkg().Path() == grammarPath {
			decode(inst.TypeArgs.At(0))
		}
	}
	for e, tv := range info.Types {
		call, ok := e.(*ast.CallExpr)
		if !ok || tv.IsType() {
			continue
		}
		var fn *types.Func
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.SelectorExpr:
			fn, _ = info.Uses[fun.Sel].(*types.Func)
		case *ast.Ident:
			fn, _ = info.Uses[fun].(*types.Func)
		}
		if fn == nil {
			continue
		}
		switch fn.FullName() {
		case "encoding/json.Unmarshal":
			decode(info.TypeOf(call.Args[1]))
		case "(*encoding/json.Decoder).Decode":
			decode(info.TypeOf(call.Args[0]))
		}
	}
}

// The three forms of zero-to-default substitution, as the guard reports them.
const (
	formFill = "zero replaced by a default (if x.F == zero { x.F = ... })"
	formCopy = "copied only when non-zero (if x.F != zero { y = x.F })"
	formOr   = "zero replaced by a default (cmp.Or(x.F, ...))"
)

// substitutions calls found with the site and form of each zero-to-default
// substitution in f, a file of the package scope below internal/, on one of
// fields. The site is the field's name (from fields), " in ", and the
// function that substitutes it.
func substitutions(info *types.Info, f *ast.File, scope string, fields map[*types.Var]string, found func(site, form string)) {
	// field is the tracked field e selects, or nil.
	field := func(e ast.Expr) *types.Var {
		s, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		v, ok := info.Uses[s.Sel].(*types.Var)
		if !ok || fields[v.Origin()] == "" {
			return nil
		}
		return v.Origin()
	}
	zero := func(e ast.Expr) bool {
		if lit, ok := ast.Unparen(e).(*ast.CompositeLit); ok {
			return len(lit.Elts) == 0
		}
		tv := info.Types[e]
		if tv.IsNil() {
			return true
		}
		switch v := tv.Value; {
		case v == nil:
			return false
		case v.Kind() == constant.String:
			return constant.StringVal(v) == ""
		case v.Kind() == constant.Int || v.Kind() == constant.Float:
			return constant.Sign(v) == 0
		}
		return false
	}
	// tested is the field cond compares with its zero value under one of
	// ops, directly or through len, or nil.
	tested := func(cond ast.Expr, ops ...token.Token) *types.Var {
		b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
		if !ok || !slices.Contains(ops, b.Op) || !zero(b.Y) {
			return nil
		}
		if call, ok := ast.Unparen(b.X).(*ast.CallExpr); ok && len(call.Args) == 1 {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
				if fn, ok := info.Uses[id].(*types.Builtin); ok && fn.Name() == "len" {
					return field(call.Args[0])
				}
			}
		}
		return field(b.X)
	}
	// stores reports whether body assigns to v (into) or assigns v to
	// something else (!into).
	stores := func(body *ast.BlockStmt, v *types.Var, into bool) bool {
		hit := false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || hit {
				return !hit
			}
			for i, lhs := range as.Lhs {
				switch {
				case into:
					hit = field(lhs) == v
				case len(as.Rhs) == len(as.Lhs):
					hit = field(as.Rhs[i]) == v && field(lhs) != v
				}
				if hit {
					break
				}
			}
			return !hit
		})
		return hit
	}
	for _, d := range f.Decls {
		where := scope
		if fd, ok := d.(*ast.FuncDecl); ok {
			if fd.Recv != nil {
				fn := info.Defs[fd.Name].(*types.Func)
				where += "." + recvNamed(fn.Type().(*types.Signature).Recv().Type()).Obj().Name()
			}
			where += "." + fd.Name.Name
		}
		at := func(v *types.Var) string { return fields[v] + " in " + where }
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				if v := tested(n.Cond, token.EQL, token.LEQ); v != nil && stores(n.Body, v, true) {
					found(at(v), formFill)
				}
				if v := tested(n.Cond, token.NEQ, token.GTR); v != nil && stores(n.Body, v, false) {
					found(at(v), formCopy)
				}
			case *ast.CallExpr:
				fun := ast.Unparen(n.Fun)
				if ix, ok := fun.(*ast.IndexExpr); ok {
					fun = ix.X
				}
				sel, ok := fun.(*ast.SelectorExpr)
				if !ok || len(n.Args) == 0 {
					break
				}
				if fn, ok := info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil &&
					fn.Pkg().Path() == "cmp" && fn.Name() == "Or" {
					if v := field(n.Args[0]); v != nil {
						found(at(v), formOr)
					}
				}
			}
			return true
		})
	}
}

// The ways writeTargets finds a field named: as the target of a store, or
// with its address taken. Any other use is a read.
type access uint8

const (
	store access = 1 + iota
	addressed
)

// writeTargets returns the identifiers in f that name a field as the
// target of a store — the selector of an assignment's left-hand side or of
// an ++/-- statement, and the key of a struct literal — or whose address
// is taken (&x.F). A compound assignment (+=) counts as a store alone, so
// a field that is only ever bumped is write-only; a field whose address is
// taken may be read through the pointer, so it counts as read too.
func writeTargets(f *ast.File) map[*ast.Ident]access {
	w := map[*ast.Ident]access{}
	target := func(e ast.Expr, acc access) {
		if s, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			w[s.Sel] = acc
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				target(e, store)
			}
		case *ast.IncDecStmt:
			target(n.X, store)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				target(n.X, addressed)
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						w[id] = store
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
		Defs:      map[*ast.Ident]types.Object{},
		Uses:      map[*ast.Ident]types.Object{},
		Types:     map[ast.Expr]types.TypeAndValue{},
		Instances: map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: s}
	tp, err := conf.Check(path, s.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	p.types = tp
	return tp, nil
}
