package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartharvest/internal/cluster"
	"smartharvest/internal/faults"
	"smartharvest/internal/market"
	"smartharvest/internal/obs"
	"smartharvest/internal/sched"
	"smartharvest/internal/sim"
	"smartharvest/internal/workload"
)

// runQuick executes an experiment at the Quick scale and sanity-checks
// the report.
func runQuick(t *testing.T, id string, minLines int) *Report {
	t.Helper()
	run, ok := Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	rep, err := run(Quick())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if rep.ID != id {
		t.Fatalf("report ID %q, want %q", rep.ID, id)
	}
	if len(rep.Lines) < minLines {
		t.Fatalf("%s: only %d lines:\n%s", id, len(rep.Lines), rep)
	}
	if !strings.Contains(rep.String(), rep.Title) {
		t.Fatalf("%s: String() missing title", id)
	}
	return rep
}

func TestTable1(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "table1", 5)
	// All four workloads present.
	for _, w := range []string{"indexserve", "memcached", "moses", "img-dnn"} {
		if !strings.Contains(rep.String(), w) {
			t.Errorf("table1 missing %s", w)
		}
	}
}

func TestFig4(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "fig4", 5)
	for _, w := range []string{"15ms", "25ms", "35ms"} {
		if !strings.Contains(rep.String(), w) {
			t.Errorf("fig4 missing window %s", w)
		}
	}
}

func TestFig5(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	rep := runQuick(t, "fig5", 20)
	if !strings.Contains(rep.String(), "smartharvest") ||
		!strings.Contains(rep.String(), "fixedbuffer-2") {
		t.Error("fig5 missing policies")
	}
}

func TestFig6(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	rep := runQuick(t, "fig6", 10)
	if !strings.Contains(rep.String(), "hdinsight") || !strings.Contains(rep.String(), "terasort") {
		t.Error("fig6 missing batch jobs")
	}
	if !strings.Contains(rep.String(), "x") {
		t.Error("fig6 missing speedups")
	}
}

func TestTable2(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	rep := runQuick(t, "table2", 7)
	for _, w := range []string{"P99@80k", "fixedbuffer-7", "smartharvest"} {
		if !strings.Contains(rep.String(), w) {
			t.Errorf("table2 missing %q", w)
		}
	}
}

func TestFig7(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "fig7", 8)
	if !strings.Contains(rep.String(), "prevpeak10") {
		t.Error("fig7 missing prevpeak10")
	}
	if !strings.Contains(rep.String(), "allocation vs square-wave usage") {
		t.Error("fig7 missing time-series plots")
	}
}

func TestFig8(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	runQuick(t, "fig8", 5)
}

func TestFig9(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	rep := runQuick(t, "fig9", 4)
	if !strings.Contains(rep.String(), "indexserve") {
		t.Error("fig9 missing indexserve column")
	}
}

func TestFig10(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "fig10", 4)
	if !strings.Contains(rep.String(), "conservative") || !strings.Contains(rep.String(), "aggressive") {
		t.Error("fig10 missing safeguard modes")
	}
}

func TestFig11(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "fig11", 4)
	if !strings.Contains(rep.String(), "long-term") {
		t.Error("fig11 missing variants")
	}
}

func TestFig13(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "fig13", 5)
	for _, c := range []string{"skewed", "symmetric", "hinged"} {
		if !strings.Contains(rep.String(), c) {
			t.Errorf("fig13 missing cost %s", c)
		}
	}
}

func TestFig14(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "fig14", 5)
	for _, w := range []string{"cpugroups grow", "cpugroups shrink", "ipis grow", "ipis shrink"} {
		if !strings.Contains(rep.String(), w) {
			t.Errorf("fig14 missing %q", w)
		}
	}
}

func TestTable3(t *testing.T) {
	rep := runQuick(t, "table3", 4)
	for _, w := range []string{"feature computation", "model inference", "model update"} {
		if !strings.Contains(rep.String(), w) {
			t.Errorf("table3 missing %q", w)
		}
	}
}

func TestFig15(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	rep := runQuick(t, "fig15", 20)
	if !strings.Contains(rep.String(), "ipis smartharvest") {
		t.Error("fig15 missing IPI rows")
	}
}

func TestAblations(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	rep := runQuick(t, "ablation", 10)
	for _, w := range []string{"predictor family", "polling interval", "learning rate"} {
		if !strings.Contains(rep.String(), w) {
			t.Errorf("ablation missing %q", w)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	t.Parallel()
	if _, ok := Lookup("nope"); ok {
		t.Fatal("unknown ID resolved")
	}
}

func TestAllIDsUnique(t *testing.T) {
	t.Parallel()
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Fatalf("experiment %q has nil runner", e.ID)
		}
	}
}

func TestFormattingHelpers(t *testing.T) {
	t.Parallel()
	if ms(500) != "0us" && ms(500) != "1us" {
		t.Errorf("ms(500ns) = %q", ms(500))
	}
	if ms(421_000) != "421us" {
		t.Errorf("ms(421us) = %q", ms(421_000))
	}
	if ms(3_416_063) != "3.42ms" {
		t.Errorf("ms(3.42ms) = %q", ms(3_416_063))
	}
	if ms(138_936_319) != "139ms" {
		t.Errorf("ms(139ms) = %q", ms(138_936_319))
	}
	if pct(110, 100) != "+10%" {
		t.Errorf("pct = %q", pct(110, 100))
	}
	if pct(110, 0) != "n/a" {
		t.Errorf("pct base 0 = %q", pct(110, 0))
	}
}

func TestChurnExperiment(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy")
	}
	rep := runQuick(t, "churn", 6)
	if !strings.Contains(rep.String(), "target over time") {
		t.Error("churn missing allocation trace")
	}
}

func TestFleetExperiment(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy")
	}
	rep := runQuick(t, "fleet", 6)
	if !strings.Contains(rep.String(), "unallocated-only") ||
		!strings.Contains(rep.String(), "smartharvest") {
		t.Error("fleet missing policy rows")
	}
}

func TestGuardSweep(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy")
	}
	rep := runQuick(t, "guard-sweep", 10)
	if !strings.Contains(rep.String(), "guard off") {
		t.Error("guard-sweep missing guard-off row")
	}
	if !strings.Contains(rep.String(), "chronic swings") {
		t.Error("guard-sweep missing detection section")
	}
}

func TestMemHarvestExperiment(t *testing.T) {
	t.Parallel()
	rep := runQuick(t, "memharvest", 7)
	if !strings.Contains(rep.String(), "smartharvest-mem") ||
		!strings.Contains(rep.String(), "fixed-8GB") {
		t.Error("memharvest missing policy rows")
	}
}

// TestReportDeterminismAcrossParallelism is the report-level half of the
// determinism regression: the rendered report lines must be byte-identical
// whether the scenarios ran serially or on a 4-way worker pool.
func TestReportDeterminismAcrossParallelism(t *testing.T) {
	t.Parallel()
	cfg := Quick()
	cfg.Duration = 3_000_000_000 // 3 simulated seconds keeps this test quick

	// fig4 covers the single-primary sweep shape; table1 covers the
	// busy-stats path. Both fan out ≥ 4 scenarios.
	for _, id := range []string{"table1", "fig4"} {
		run, ok := Lookup(id)
		if !ok {
			t.Fatalf("unknown experiment %q", id)
		}
		serialCfg := cfg
		serialCfg.Parallel = 1
		serial, err := run(serialCfg)
		if err != nil {
			t.Fatalf("%s serial: %v", id, err)
		}
		parallelCfg := cfg
		parallelCfg.Parallel = 4
		parallel, err := run(parallelCfg)
		if err != nil {
			t.Fatalf("%s parallel: %v", id, err)
		}
		if serial.String() != parallel.String() {
			t.Errorf("%s: report differs between -parallel 1 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial, parallel)
		}
	}
}

func TestSchedExperiment(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy")
	}
	cfg := Quick()
	cfg.Check = true // job invariants verified on every run
	rep, err := Sched(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"first-fit", "best-fit", "predicted"} {
		if !strings.Contains(rep.String(), pol) {
			t.Errorf("sched report missing %s row", pol)
		}
	}
}

// TestSchedDeterminismAcrossParallelism extends the report-level
// determinism regression to the job scheduler: the sched report must be
// byte-identical whether its six runs execute serially or on a 4-way
// worker pool.
func TestSchedDeterminismAcrossParallelism(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy")
	}
	cfg := Quick()
	cfg.Duration = 4_000_000_000 // 4 simulated seconds keeps this test quick

	serialCfg := cfg
	serialCfg.Parallel = 1
	serial, err := Sched(serialCfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parallelCfg := cfg
	parallelCfg.Parallel = 4
	parallel, err := Sched(parallelCfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("sched report differs between -parallel 1 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// TestSchedTraceOnePerRun: -trace covers the fleet scheduler like any
// scenario run — one JSONL file per sched run, each carrying job events —
// and tracing leaves the report (text, CSV and JSON) byte-identical.
func TestSchedTraceOnePerRun(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy")
	}
	cfg := Quick()
	plain, err := Sched(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TraceDir = t.TempDir()
	traced, err := Sched(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != traced.String() || !bytes.Equal(plain.CSV(), traced.CSV()) ||
		!bytes.Equal(plain.RowsJSON(), traced.RowsJSON()) {
		t.Errorf("tracing changed the sched report:\n--- plain ---\n%s\n--- traced ---\n%s", plain, traced)
	}
	all, err := filepath.Glob(filepath.Join(cfg.TraceDir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(plain.Rows) {
		t.Fatalf("%d trace files for %d sched runs: %v", len(all), len(plain.Rows), all)
	}
	for i := range plain.Rows {
		files, _ := filepath.Glob(filepath.Join(cfg.TraceDir, fmt.Sprintf("sched-*-s1-%03d.jsonl", i)))
		if len(files) != 1 {
			t.Fatalf("run %d: trace files %v, want exactly one", i, files)
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`"ev":"job-submit"`)) {
			t.Errorf("%s holds no job-submit event", files[0])
		}
	}
}

func TestFleetChaosExperiment(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy")
	}
	cfg := Quick()
	cfg.Check = true // job + fleet invariants verified on every run
	rep, err := FleetChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []string{"first-fit", "best-fit", "predicted"} {
		if !strings.Contains(rep.String(), pol) {
			t.Errorf("fleetchaos report missing %s rows", pol)
		}
	}
	for _, in := range []string{"fault-free", "light (x0.25)", "moderate (x1)", "heavy (x4)"} {
		if !strings.Contains(rep.String(), in) {
			t.Errorf("fleetchaos report missing %s section", in)
		}
	}
	if !strings.Contains(rep.String(), "harvested core-seconds vs fault-free") {
		t.Error("fleetchaos report missing the harvested-core-second comparison")
	}
}

// TestFleetChaosDeterminismAcrossParallelism pins the fleet-chaos report
// to be byte-identical whether its 12 runs execute serially or on a
// 4-way worker pool — every injector and scheduler RNG must stay
// run-local.
func TestFleetChaosDeterminismAcrossParallelism(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy")
	}
	cfg := Quick()
	cfg.Duration = 4_000_000_000 // 4 simulated seconds keeps this test quick

	serialCfg := cfg
	serialCfg.Parallel = 1
	serial, err := FleetChaos(serialCfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parallelCfg := cfg
	parallelCfg.Parallel = 4
	parallel, err := FleetChaos(parallelCfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("fleetchaos report differs between -parallel 1 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	// Same seed, same config → same bytes, CSV and JSON emitters included.
	again, err := FleetChaos(serialCfg)
	if err != nil {
		t.Fatalf("repeat: %v", err)
	}
	if !bytes.Equal(serial.CSV(), again.CSV()) || !bytes.Equal(serial.RowsJSON(), again.RowsJSON()) {
		t.Error("fleetchaos rows differ across identical runs")
	}
}

// TestFleetChaosZeroPlanMatchesFaultFree pins the fault-free guarantee
// the ×0 sweep point relies on: a fleet plan whose probabilities are all
// zero (even one carrying non-zero durations) builds no injector and
// produces a byte-identical event trace to a run with no plan at all.
func TestFleetChaosZeroPlanMatchesFaultFree(t *testing.T) {
	t.Parallel()
	trace := func(plan faults.Plan) []byte {
		t.Helper()
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf, obs.JSONLOmitPolls())
		_, err := sched.Run(sched.Config{
			Fleet: cluster.Config{
				Servers:      2,
				ArrivalRate:  1.5,
				MeanLifetime: 3 * sim.Second,
				Duration:     8 * sim.Second,
				Warmup:       2 * sim.Second,
				Seed:         7,
				Observer:     sink,
				Faults:       plan,
			},
			Policy:      sched.Predicted,
			ArrivalRate: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	free := trace(faults.Plan{})
	if len(free) == 0 {
		t.Fatal("fault-free run produced an empty trace")
	}
	if zero := trace(fleetChaosBasePlan.Scale(0)); !bytes.Equal(free, zero) {
		t.Error("scaled-to-zero fleet plan diverged from the fault-free trace")
	}
	durOnly := faults.Plan{ServerRestartDur: sim.Second, GrantDelayDur: 5 * sim.Millisecond}
	if withDur := trace(durOnly); !bytes.Equal(free, withDur) {
		t.Error("zero-probability plan with durations diverged from the fault-free trace")
	}
}

func TestPredictorsExperiment(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	cfg := Quick()
	cfg.Duration = 4_000_000_000 // 18 scenarios; 4 simulated seconds keeps this test quick
	rep, err := Predictors(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"periodic", "bursty", "mixed"} {
		if !strings.Contains(rep.String(), "class "+class) {
			t.Errorf("predictors report missing class %s", class)
		}
	}
	for _, pred := range []string{"csoaa", "adagrad", "ewma", "mlp", "ensemble"} {
		if !strings.Contains(rep.String(), pred) {
			t.Errorf("predictors report missing predictor %s", pred)
		}
	}
}

// TestPredictorsDeterminismAcrossParallelism pins the ablation report to
// be byte-identical whether its 21 scenarios run serially or on a 4-way
// worker pool — every zoo predictor's RNG use must stay run-local.
func TestPredictorsDeterminismAcrossParallelism(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy")
	}
	cfg := Quick()
	cfg.Duration = 2_000_000_000 // 2 simulated seconds keeps this test quick

	serialCfg := cfg
	serialCfg.Parallel = 1
	serial, err := Predictors(serialCfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parallelCfg := cfg
	parallelCfg.Parallel = 4
	parallel, err := Predictors(parallelCfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("predictors report differs between -parallel 1 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

func TestMarketExperiment(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy sweep")
	}
	cfg := Quick()
	cfg.Duration = 4_000_000_000 // 27 runs; 4 simulated seconds keeps this test quick
	cfg.Check = true             // job + pool invariants verified on every run
	rep, err := Market(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"spot-heavy", "balanced", "premium-heavy",
		"first-fit", "best-fit", "predicted", "rev-goodput"} {
		if !strings.Contains(rep.String(), want) {
			t.Errorf("market report missing %q", want)
		}
	}
	// The sweep's core shape: the premium admission bound tightens as
	// overcommit drops, so the 0.5 grid rows must reject pools the 3.0
	// rows admit.
	var rejectedLow, rejectedHigh float64
	for _, row := range rep.Rows {
		oc, rej := -1.0, 0.0
		for _, c := range row.Cells {
			switch c.Key {
			case "overcommit":
				oc = c.Val
			case "rejected":
				rej = c.Val
			}
		}
		switch oc {
		case 0.5:
			rejectedLow += rej
		case 3.0:
			rejectedHigh += rej
		}
	}
	if rejectedLow <= rejectedHigh {
		t.Errorf("rejections at overcommit 0.5 (%g) not above 3.0 (%g)", rejectedLow, rejectedHigh)
	}
}

// TestMarketDeterminismAcrossParallelism pins the market report to be
// byte-identical whether its 27 runs execute serially or on a 4-way
// worker pool — the ledger's RNG must stay run-local.
func TestMarketDeterminismAcrossParallelism(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy")
	}
	cfg := Quick()
	cfg.Duration = 3_000_000_000 // 3 simulated seconds keeps this test quick

	serialCfg := cfg
	serialCfg.Parallel = 1
	serial, err := Market(serialCfg)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	parallelCfg := cfg
	parallelCfg.Parallel = 4
	parallel, err := Market(parallelCfg)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("market report differs between -parallel 1 and -parallel 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
	again, err := Market(serialCfg)
	if err != nil {
		t.Fatalf("repeat: %v", err)
	}
	if serial.String() != again.String() {
		t.Error("same-seed market reports diverged across repeated runs")
	}
}

// TestMarketZeroPoolMatchesPlainSched pins the inertness contract at the
// experiment layer: a cfg.Pools plan that opens no pools (overcommit
// knob only) must produce exactly the runs a market-free scheduler
// does — same completions, evictions, and goodput per policy.
func TestMarketZeroPoolMatchesPlainSched(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy")
	}
	cfg := Quick()
	cfg.Duration = 3_000_000_000
	cfg.Pools = market.Config{Overcommit: 2} // a plan with no pools: the market stays inert
	rep, err := Market(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []sched.Policy{sched.FirstFit, sched.BestFit, sched.Predicted} {
		plain, err := sched.Run(sched.Config{
			Fleet:       schedFleet(cfg, nil),
			Policy:      pol,
			ArrivalRate: marketJobRate,
		})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, row := range rep.Rows {
			cells := map[string]Cell{}
			for _, c := range row.Cells {
				cells[c.Key] = c
			}
			if cells["policy"].Str != pol.String() {
				continue
			}
			found = true
			if g := cells["goodput_core_s"].Val; g != plain.GoodputCoreSec {
				t.Errorf("%s: zero-pool market goodput %g, plain sched %g", pol, g, plain.GoodputCoreSec)
			}
			if adm := cells["admitted"].Val; adm != 0 {
				t.Errorf("%s: %g pools admitted from a pool-less plan", pol, adm)
			}
		}
		if !found {
			t.Errorf("no market row for policy %s", pol)
		}
	}
}

func TestSchedTenantMixAndPools(t *testing.T) {
	t.Parallel()
	if testing.Short() {
		t.Skip("heavy")
	}
	cfg := Quick()
	cfg.Duration = 3_000_000_000
	bursty := workload.ClassBursty
	cfg.TenantMix = &bursty
	cfg.Pools = market.Config{Pools: []market.PoolSpec{{Name: "a", Tier: market.Spot, Reserved: 4}}}
	cfg.Check = true
	rep, err := Sched(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.String(), "pool plan") {
		t.Error("sched report missing the pool-plan totals line")
	}
	// A text plan or class that does not parse never gets here (the grid
	// and the flags refuse it); a typed plan the market refuses fails the
	// run.
	cfg.TenantMix = nil
	cfg.Pools = market.Config{Pools: []market.PoolSpec{{Tier: market.Spot}}}
	if _, err := Sched(cfg); err == nil {
		t.Error("garbage pool plan accepted")
	}
}
