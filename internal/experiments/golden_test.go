package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"smartharvest/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this build's output")

// goldenConfig is the scale every experiment is pinned at: Quick's seed
// with one measured simulated second after a half-second warmup.
func goldenConfig() Config {
	cfg := Quick()
	cfg.Duration = sim.Second
	cfg.Warmup = 500 * sim.Millisecond
	return cfg
}

// TestExperimentGoldens pins every registered experiment's text report,
// CSV rows and JSON rows byte for byte against testdata/golden. table3
// times the learner on the wall clock, so only its shape — line count
// and row keys — is pinned. Regenerate with `go test
// ./internal/experiments -run TestExperimentGoldens -update`, only for
// an intended change of a report.
func TestExperimentGoldens(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			rep, err := e.Run(goldenConfig())
			if err != nil {
				t.Fatal(err)
			}
			if e.ID == "table3" {
				checkGolden(t, e.ID+".shape", []byte(reportShape(rep)))
				return
			}
			checkGolden(t, e.ID+".txt", []byte(rep.String()))
			checkGolden(t, e.ID+".csv", rep.CSV())
			checkGolden(t, e.ID+".json", rep.RowsJSON())
		})
	}
}

// TestPredictorsTracesPinned pins the predictor ablation's per-run JSONL
// traces (TraceDir, poll samples omitted) at the golden scale by one
// sha256 per file in testdata/golden/predictors-traces.sha256, and demands
// that each traced SmartHarvest run other than CSOAA opens its trace with
// exactly one predictor event naming its row's predictor. Regenerate with
// -update, only for an intended change of a trace.
func TestPredictorsTracesPinned(t *testing.T) {
	t.Parallel()
	cfg := goldenConfig()
	cfg.TraceDir = t.TempDir()
	if _, err := Predictors(cfg); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(cfg.TraceDir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if want := len(predictorClasses) * (1 + len(predictorKinds)); len(files) != want {
		t.Fatalf("%d trace files, want %d", len(files), want)
	}
	var manifest bytes.Buffer
	announced := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(f)
		fmt.Fprintf(&manifest, "%x  %s\n", sha256.Sum256(data), name)
		if n := bytes.Count(data, []byte(`"ev":"predictor"`)); n > 0 {
			announced++
			// Run names are pred-<class>-<predictor>.
			kind := strings.Split(name, "-")[2]
			first, _, _ := bytes.Cut(data, []byte("\n"))
			if want := fmt.Sprintf(`"ev":"predictor","t":0,"name":%q,`, kind); n != 1 || !bytes.Contains(first, []byte(want)) {
				t.Errorf("%s: %d predictor events, want one opening the trace with %s", name, n, want)
			}
		}
	}
	if want := len(predictorClasses) * (len(predictorKinds) - 1); announced != want {
		t.Errorf("%d traces announce their predictor, want %d (every arm but csoaa)", announced, want)
	}
	checkGolden(t, "predictors-traces.sha256", manifest.Bytes())
}

// reportShape renders what of a report does not depend on timing: its
// line count and, per row, the section, the string cells and the keys.
func reportShape(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "lines %d\n", len(r.Lines))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "row %q", row.Section)
		for _, c := range row.Cells {
			if c.Numeric {
				fmt.Fprintf(&b, " %s", c.Key)
			} else {
				fmt.Fprintf(&b, " %s=%q", c.Key, c.Str)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// checkGolden compares got with testdata/golden/name, or rewrites the
// file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden:\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

// schedGoldenGrid is the second golden scale of the job-scheduler
// family: five measured seconds after a half-second warmup, long enough
// that every policy submits, evicts and completes jobs (at one second
// every job column is 0). The last run opens a pool plan on a bursty
// tenant mix, so both values reach the scheduler through the grid.
const schedGoldenGrid = `{"schema": "smartharvest-grid/v1",
	"defaults": {"duration": "5s", "warmup": "500ms", "seed": 1},
	"runs": [{"experiment": "sched"}, {"experiment": "fleetchaos"}, {"experiment": "market"},
		{"id": "sched-pools-bursty", "experiment": "sched", "pools": "name=a,tier=spot,reserved=4", "tenants": "bursty"}]}`

// TestSchedFamilyGoldens pins the sched, fleetchaos and market reports
// at the five-second scale byte for byte against testdata/golden/5s
// (one file set per grid run id), and fails a golden that ran no jobs:
// each report must submit, evict and complete work. market's table has
// no job columns; its completed work is its goodput and its evictions
// are the ones charged to a tier (v-spot, v-std, v-prem).
func TestSchedFamilyGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; skipped in -short")
	}
	g, err := ParseGrid([]byte(schedGoldenGrid))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		t.Run(r.ID, func(t *testing.T) {
			t.Parallel()
			run, _ := Lookup(r.Experiment)
			rep, err := run(r.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, filepath.Join("5s", r.ID+".txt"), []byte(rep.String()))
			checkGolden(t, filepath.Join("5s", r.ID+".csv"), rep.CSV())
			checkGolden(t, filepath.Join("5s", r.ID+".json"), rep.RowsJSON())
			keys := [][]string{{"submitted"}, {"completed"}, {"evictions"}}
			if r.Experiment == "market" {
				keys = [][]string{{"goodput_core_s"}, {"viol_spot", "viol_standard", "viol_premium"}}
			}
			for _, k := range keys {
				if sumCells(rep, k...) == 0 {
					t.Errorf("vacuous golden: every row has %v = 0", k)
				}
			}
		})
	}
}

// sumCells totals the numeric cells under keys across a report's rows.
func sumCells(r *Report, keys ...string) float64 {
	var sum float64
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			if c.Numeric && slices.Contains(keys, c.Key) {
				sum += c.Val
			}
		}
	}
	return sum
}
