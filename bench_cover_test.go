// Coverage and drift guards for the benchmark surface: every
// experiment must have a root Benchmark wrapper, and the pinned wrapper
// list must match what `go test -bench` actually discovers.
package smartharvest_test

import (
	"os/exec"
	"sort"
	"strings"
	"testing"

	"smartharvest/internal/experiments"
)

// experimentBenchmarks pairs every root Benchmark function with the
// experiment ID it runs. TestBenchmarkCoverage asserts this map covers
// experiments.All() exactly, and TestBenchmarkListMatchesDiscovery
// asserts the function names exist — so adding an experiment without a
// benchmark, or renaming a benchmark without updating the map, fails.
var experimentBenchmarks = map[string]string{
	"BenchmarkTable1":     "table1",
	"BenchmarkFig4":       "fig4",
	"BenchmarkFig5":       "fig5",
	"BenchmarkFig6":       "fig6",
	"BenchmarkTable2":     "table2",
	"BenchmarkFig7":       "fig7",
	"BenchmarkFig8":       "fig8",
	"BenchmarkFig9":       "fig9",
	"BenchmarkFig10":      "fig10",
	"BenchmarkFig11":      "fig11",
	"BenchmarkFig13":      "fig13",
	"BenchmarkFig14":      "fig14",
	"BenchmarkTable3":     "table3",
	"BenchmarkFig15":      "fig15",
	"BenchmarkAblations":  "ablation",
	"BenchmarkChurn":      "churn",
	"BenchmarkFleet":      "fleet",
	"BenchmarkSched":      "sched",
	"BenchmarkGuardSweep": "guard-sweep",
	"BenchmarkMemHarvest": "memharvest",
	"BenchmarkChaos":      "chaos",
	"BenchmarkFleetChaos": "fleetchaos",
	"BenchmarkPredictors": "predictors",
	"BenchmarkMarket":     "market",
}

// TestBenchmarkCoverage: the experiment registry and the root benchmark
// wrappers must cover each other exactly.
func TestBenchmarkCoverage(t *testing.T) {
	covered := map[string]string{} // experiment ID -> benchmark name
	for fn, id := range experimentBenchmarks {
		if prev, dup := covered[id]; dup {
			t.Errorf("experiment %q benchmarked twice (%s and %s)", id, prev, fn)
		}
		covered[id] = fn
	}
	for _, e := range experiments.All() {
		if _, ok := covered[e.ID]; !ok {
			t.Errorf("experiment %q has no root Benchmark wrapper", e.ID)
		}
		delete(covered, e.ID)
	}
	for id, fn := range covered {
		t.Errorf("%s benchmarks unknown experiment %q", fn, id)
	}
}

// listBenchmarks asks the go tool which Benchmark functions a package
// actually compiles — the ground truth the pinned list must match.
func listBenchmarks(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	out, err := exec.Command("go", "test", "-run", "^$", "-list", "^Benchmark", pkg).Output()
	if err != nil {
		t.Fatalf("go test -list %s: %v", pkg, err)
	}
	found := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "Benchmark") {
			found[line] = true
		}
	}
	return found
}

// TestBenchmarkListMatchesDiscovery compares the pinned root wrapper map
// against `go test -list` discovery, byte for byte.
func TestBenchmarkListMatchesDiscovery(t *testing.T) {
	if testing.Short() {
		t.Skip("invokes the go tool; skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}

	root := listBenchmarks(t, ".")
	var wantRoot, gotRoot []string
	for fn := range experimentBenchmarks {
		wantRoot = append(wantRoot, fn)
	}
	for fn := range root {
		gotRoot = append(gotRoot, fn)
	}
	sort.Strings(wantRoot)
	sort.Strings(gotRoot)
	if strings.Join(wantRoot, ",") != strings.Join(gotRoot, ",") {
		t.Errorf("root benchmarks drifted:\n  pinned:     %v\n  discovered: %v", wantRoot, gotRoot)
	}
}
