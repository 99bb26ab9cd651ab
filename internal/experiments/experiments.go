// Package experiments regenerates every table and figure of the paper's
// evaluation (§5), plus the extensions beyond it. cmd/experiments exposes
// them on the command line, through the declarative grid in grid.go.
//
// An experiment is declared as data over two helpers (table.go):
//
//   - A sweep is a list of sections, each one baseline plus its arms. An
//     arm is one independent seeded run: a single-server scenario or a
//     fleet-scheduler run. All arms of all sections run on one worker pool
//     in declaration order and each result lands on its arm. The one run
//     path attaches the invariant checker (Config.Check) and a JSONL trace
//     named by the run's index (Config.TraceDir) to every run alike.
//   - A table declares its columns once: header, width, format, and a
//     typed Row key, or no key for text-only columns such as "vs base".
//     Each add call renders the text line and records the Row from the
//     same values, so Report.Lines and Report.Rows cannot drift apart.
//     Shared column sets cover the recurring P99 / vs base / harvested
//     columns and the sched family's job counts and goodput / SLO tail.
//
// Absolute numbers differ from the paper (the substrate is a calibrated
// simulator, not the authors' Hyper-V testbed); the shapes — who wins, by
// roughly what factor, where the crossovers fall — are the reproduction
// target. EXPERIMENTS.md records paper-vs-measured for every experiment.
package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"

	"smartharvest/internal/apps"
	"smartharvest/internal/core"
	"smartharvest/internal/faults"
	"smartharvest/internal/harness"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/learner"
	"smartharvest/internal/market"
	"smartharvest/internal/metrics"
	"smartharvest/internal/sim"
	"smartharvest/internal/textplot"
	"smartharvest/internal/workload"
)

// Config scales the experiments. The zero value is invalid; use Quick.
// A grid run (grid.go) decodes its keys straight into it; the json tags
// name them.
type Config struct {
	// Duration is the measured run length per scenario.
	Duration sim.Time `json:"duration"`
	// Warmup precedes each measurement.
	Warmup sim.Time `json:"warmup"`
	// Seed drives all randomness.
	Seed uint64 `json:"seed"`
	// Parallel bounds the scenario worker pool (0 = GOMAXPROCS).
	// Results are byte-identical at any setting; see sweep.
	Parallel int `json:"-"`
	// TraceDir, when non-empty, writes one JSONL event trace per run —
	// scenario or fleet-scheduler run — into the directory (poll samples
	// omitted — they dominate volume ~1000:1). Each run owns its file, so
	// traces are byte-identical at any Parallel setting. The directory
	// must exist.
	TraceDir string `json:"-"`
	// Check attaches an invariant checker (internal/check) to every
	// scenario and scheduler run; any violation fails the experiment with
	// the checker's report. CheckStats reports the process-wide tally.
	Check bool `json:"check"`
	// Faults, when enabled, is injected into the sched experiment's
	// fleet (every server), composing the job schedulers with degraded
	// agents and (for fleet-level keys) a faulty control plane.
	// Experiments that own their fault plans (chaos, fleetchaos)
	// ignore it.
	Faults faults.Plan `json:"faults"`
	// Predictor selects the peak predictor every "smartharvest" row runs
	// with (harness.PredictorKind names). The zero value is the paper's
	// CSOAA learner, which keeps default reports byte-identical.
	// Experiments that sweep predictor-adjacent options themselves
	// (fig10's safeguards, fig13's costs, table3/ablation's learner
	// comparison) keep their explicit configurations.
	Predictor harness.PredictorKind `json:"predictor"`
	// Pools, when it sets anything, is a harvested-capacity pool plan.
	// The sched experiment opens it on its fleet; the market experiment
	// runs it in place of its built-in overcommit × tier-mix grid. The
	// zero plan (the default) leaves the sched experiment market-free
	// and byte-identical to builds without pools.
	Pools market.Config `json:"pools"`
	// TenantMix, when non-nil, is a workload-characterization class; the
	// sched and market experiments then sample tenant VMs from that class
	// instead of the default four-primaries mix. Nil keeps the defaults
	// byte-identical.
	TenantMix *workload.Class `json:"tenants"`
}

// checkedRuns and checkViolations tally invariant-checked scenario runs
// across all experiments in this process (experiments may run
// concurrently under cmd/experiments).
var checkedRuns, checkViolations atomic.Int64

// CheckStats returns how many scenario runs were invariant-verified so
// far in this process and how many violations they produced in total.
func CheckStats() (runs, violations int64) {
	return checkedRuns.Load(), checkViolations.Load()
}

// Quick returns a configuration for smoke tests and benchmarks.
func Quick() Config {
	return Config{Duration: 6 * sim.Second, Warmup: 2 * sim.Second, Seed: 1}
}

// Report is a formatted experiment result. Lines carry the rendered
// text tables and plots; Rows carry the same data as typed cells for
// the CSV/JSON emitters (see rows.go).
type Report struct {
	ID    string
	Title string
	Lines []string
	Rows  []Row
}

// String renders the report as text.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

func (r *Report) addf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// addPlot appends a rendered textplot to the report.
func (r *Report) addPlot(plot string) {
	r.Lines = append(r.Lines, strings.Split(strings.TrimRight(plot, "\n"), "\n")...)
}

// Runner is an experiment entry point.
type Runner func(Config) (*Report, error)

// All maps experiment IDs to runners, in the paper's order.
func All() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"table1", Table1},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig6", Fig6},
		{"table2", Table2},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig9", Fig9},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"fig13", Fig13},
		{"fig14", Fig14},
		{"table3", Table3},
		{"fig15", Fig15},
		{"ablation", Ablations},
		{"churn", Churn},
		{"fleet", Fleet},
		{"sched", Sched},
		{"guard-sweep", SafeguardSweep},
		{"memharvest", MemHarvest},
		{"chaos", Chaos},
		{"fleetchaos", FleetChaos},
		{"predictors", Predictors},
		{"market", Market},
	}
}

// Lookup returns the runner for an experiment ID.
func Lookup(id string) (Runner, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e.Run, true
		}
	}
	return nil, false
}

// ms formats nanoseconds as milliseconds with sensible precision.
func ms(ns int64) string {
	v := float64(ns) / 1e6
	switch {
	case v >= 100:
		return fmt.Sprintf("%.0fms", v)
	case v >= 1:
		return fmt.Sprintf("%.2fms", v)
	default:
		return fmt.Sprintf("%.0fus", float64(ns)/1e3)
	}
}

// pct formats the relative change of v against a baseline.
func pct[T int | int64 | float64](v, base T) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%%", (float64(v)/float64(base)-1)*100)
}

// standardPrimaries returns the paper's four primary workloads at their
// §5.1 loads.
func standardPrimaries() []apps.PrimarySpec {
	return []apps.PrimarySpec{
		apps.IndexServe(500),
		apps.Memcached(40000),
		apps.Moses(400),
		apps.ImgDNN(2000),
	}
}

// subMillisecond reports whether the paper's QoS-guard constants are
// usable for this workload in the simulator. The 50 µs dispatch-wait
// threshold presumes Hyper-V's per-dispatch counter; under the
// simulator's coarser per-work-item accounting, millisecond-scale
// services exceed it routinely even when healthy (see DESIGN.md), so
// those runs disable the long-term guard.
func subMillisecond(spec apps.PrimarySpec) bool {
	return strings.HasPrefix(spec.Name, "memcached")
}

// scenario builds a single-primary scenario with the shared defaults.
func scenario(cfg Config, name string, spec apps.PrimarySpec, ctrl harness.ControllerFactory) harness.Scenario {
	return scenarioOf(cfg, name, ctrl, subMillisecond(spec), spec)
}

// scenarioOf builds a scenario of the given primaries with CPUBully as
// the batch, cfg's duration, warmup and seed, and the long-term safeguard
// set by guard.
func scenarioOf(cfg Config, name string, ctrl harness.ControllerFactory, guard bool, primaries ...apps.PrimarySpec) harness.Scenario {
	return harness.Scenario{
		Name:              name,
		Primaries:         primaries,
		Batch:             harness.BatchCPUBully,
		Controller:        ctrl,
		Duration:          cfg.Duration,
		Warmup:            cfg.Warmup,
		Seed:              cfg.Seed,
		LongTermSafeguard: guard,
	}
}

// smartharvest builds the standard SmartHarvest controller row, running
// whichever predictor cfg selects (default: the paper's CSOAA).
func smartharvest(cfg Config) harness.ControllerFactory {
	return harness.SmartHarvestPredictorFactory(cfg.Predictor, core.SmartHarvestOptions{})
}

// controller maps a policy name, as the reports print it, to its
// factory: noharvest, smartharvest (cfg's predictor), prevpeak,
// prevpeak10, or fixedbuffer-k.
func controller(cfg Config, name string) harness.ControllerFactory {
	switch name {
	case "noharvest":
		return harness.NoHarvestFactory()
	case "smartharvest":
		return smartharvest(cfg)
	case "prevpeak":
		return harness.PrevPeakFactory(1, false)
	case "prevpeak10":
		return harness.PrevPeakFactory(10, true)
	}
	var k int
	if _, err := fmt.Sscanf(name, "fixedbuffer-%d", &k); err != nil {
		panic("experiments: unknown policy " + name)
	}
	return harness.FixedBufferFactory(k)
}

// fixedBuffers names a fixed-buffer sweep.
func fixedBuffers(ks ...int) []string {
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = fmt.Sprintf("fixedbuffer-%d", k)
	}
	return names
}

// mechanisms are the two core-reassignment mechanisms, cpugroups first.
var mechanisms = []hypervisor.Mechanism{hypervisor.CpuGroups, hypervisor.IPI}

// Table1 reproduces the paper's Table 1: average and average-peak busy
// cores for each primary workload running alone in a 10-core VM, polled
// every 50 µs with peaks per 25 ms window.
func Table1(cfg Config) (*Report, error) {
	var sec section
	for _, spec := range standardPrimaries() {
		s := scenario(cfg, "table1-"+spec.Name, spec, harness.NoHarvestFactory())
		s.Observer = newBusyStats(cfg.Warmup)
		sec.add(spec.Name, s)
	}
	if err := sweep(cfg, &sec); err != nil {
		return nil, err
	}

	r := &Report{ID: "table1", Title: "avg CPU stats in #cores (primary alone, 10-core VM)"}
	t := newTable(r,
		col{head: "workload", w: -12, key: "workload"},
		col{head: "qps", w: 10, verb: "%.0f", key: "qps"},
		col{head: "avg busy", w: 12, verb: "%.2f", key: "avg_busy_cores"},
		col{head: "avg peak", w: 12, verb: "%.2f", key: "avg_peak_cores"},
		col{})
	paper := map[string][2]float64{
		"indexserve": {1.3, 7.0}, "memcached": {2.3, 7.7},
		"moses": {1.5, 5.2}, "img-dnn": {1.7, 6.9},
	}
	for _, a := range sec.arms {
		p := paper[a.name]
		busy, peak := a.scen.Observer.(*busyStats).means()
		t.add("", a.name, a.scen.Primaries[0].QPS, busy, peak,
			fmt.Sprintf("  (paper: %.1f / %.1f)", p[0], p[1]))
	}
	return r, nil
}

// Fig4 reproduces the learning-window sweep: Memcached + CPUBully with
// 15/25/35 ms windows, reporting P99 against the harvest achieved.
func Fig4(cfg Config) (*Report, error) {
	spec := apps.Memcached(40000)
	sec := withBase(scenario(cfg, "fig4-base", spec, harness.NoHarvestFactory()))
	for _, w := range []sim.Time{15 * sim.Millisecond, 25 * sim.Millisecond, 35 * sim.Millisecond} {
		s := scenario(cfg, "fig4-w", spec, smartharvest(cfg))
		s.Window = w
		sec.add(fmt.Sprintf("smartharvest (%dms)", int(w.Milliseconds())), s)
	}
	if err := sweep(cfg, sec); err != nil {
		return nil, err
	}

	r := &Report{ID: "fig4", Title: "learning window size exploration (Memcached 40k + CPUBully)"}
	t := newTable(r, append([]col{
		{key: "config", hide: true}, {key: "window_ms", hide: true}, {head: "config", w: -22},
	}, p99Cols...)...)
	base := sec.base.res
	t.add("", "noharvest", 0, "no harvesting", vsBase(base, nil))
	for _, a := range sec.arms {
		t.add("", "smartharvest", a.scen.Window.Milliseconds(), a.name, vsBase(a.res, base))
	}
	return r, nil
}

// fig5Buffers gives the fixed-buffer sweep per workload, matching the
// figure legends ("Fixed Buffer (7-2)" etc.).
var fig5Buffers = map[string][]int{
	"indexserve": {7, 5, 4, 3, 2},
	"memcached":  {7, 6, 5, 4, 3, 2},
	"moses":      {8, 7, 6, 5, 4, 3},
	"img-dnn":    {8, 7, 6, 5, 4, 3},
}

// Fig5 reproduces the single-primary comparison: P99 latency versus
// average cores harvested for NoHarvest, the FixedBuffer sweep,
// SmartHarvest, and PrevPeak, for each of the four primaries co-located
// with CPUBully. All four workloads' sweeps run on one worker pool.
func Fig5(cfg Config) (*Report, error) {
	var secs []*section
	for _, spec := range standardPrimaries() {
		sec := withBase(scenario(cfg, "fig5-base", spec, harness.NoHarvestFactory()))
		for _, p := range append([]string{"smartharvest", "prevpeak"}, fixedBuffers(fig5Buffers[spec.Name]...)...) {
			sec.add(p, scenario(cfg, "fig5-"+spec.Name+"-"+p, spec, controller(cfg, p)))
		}
		secs = append(secs, sec)
	}
	if err := sweep(cfg, secs...); err != nil {
		return nil, err
	}

	r := &Report{ID: "fig5", Title: "single primary VM co-located with CPUBully"}
	for _, sec := range secs {
		spec, base := sec.base.scen.Primaries[0], sec.base.res
		r.addf("--- %s (%0.0f qps), allowed P99 = +10%% of %s ---", spec.Name, spec.QPS, ms(base.P99(0)))
		t := newTable(r,
			col{head: "policy", w: -18, key: "policy"},
			p99Cols[0], p99Cols[1],
			col{head: "P99.9", w: 10, verb: msVerb, key: "p999_ns"},
			p99Cols[2],
			col{head: "flags"})
		t.rec(spec.Name, "noharvest", base.P99(0), nil, base.Primaries[0].Latency.P999, 0.0, nil)
		scatter := map[string][]textplot.Point{
			"noharvest": {{X: 0, Y: float64(base.P99(0)) / 1e6}},
		}
		for _, a := range sec.arms {
			res := a.res
			flags := ""
			if float64(res.P99(0)) > float64(base.P99(0))*1.1 {
				flags = "VIOLATES +10%"
			}
			t.add(spec.Name, a.name, res.P99(0), pct(res.P99(0), base.P99(0)),
				res.Primaries[0].Latency.P999, res.AvgHarvestedCores, flags)
			key := strings.TrimRight(a.name, "-0123456789") // one series for all fixed buffers
			scatter[key] = append(scatter[key], textplot.Point{
				X: res.AvgHarvestedCores, Y: float64(res.P99(0)) / 1e6,
			})
		}
		r.addPlot(textplot.Render([]textplot.Series{
			{Name: "no harvesting", Glyph: '@', Points: scatter["noharvest"]},
			{Name: "smartharvest", Glyph: '*', Points: scatter["smartharvest"]},
			{Name: "prevpeak", Glyph: 'o', Points: scatter["prevpeak"]},
			{Name: "fixed buffers", Glyph: '+', Points: scatter["fixedbuffer"]},
		}, textplot.Options{
			Title:  fmt.Sprintf("%s: P99 vs cores harvested", spec.Name),
			XLabel: "avg cores harvested", YLabel: "P99 ms", LogY: true,
			Width: 52, Height: 12,
		}))
	}
	return r, nil
}

// Fig6 reproduces the realistic-batch experiment: IndexServe co-located
// with HDInsight and TeraSort, reporting batch speedup (vs a 1-core
// ElasticVM) against IndexServe's P99. Each policy arm is followed by its
// no-harvest speedup reference, so both runs share the worker pool.
func Fig6(cfg Config) (*Report, error) {
	spec := apps.IndexServe(500)
	var secs []*section
	for _, batch := range []harness.BatchKind{harness.BatchHDInsight, harness.BatchTeraSort} {
		sec := withBase(scenario(cfg, "fig6-base", spec, harness.NoHarvestFactory()))
		for _, p := range append([]string{"smartharvest", "prevpeak"}, fixedBuffers(7, 4, 2)...) {
			s := scenario(cfg, "fig6-"+p, spec, controller(cfg, p))
			s.Batch = batch
			sec.add(p, s)
			sec.add(p, harness.BaselineScenario(s))
		}
		secs = append(secs, sec)
	}
	if err := sweep(cfg, secs...); err != nil {
		return nil, err
	}

	r := &Report{ID: "fig6", Title: "IndexServe co-located with real batch workloads"}
	for _, sec := range secs {
		batch, base := sec.arms[0].scen.Batch, sec.base.res
		r.addf("--- %s w/ %s, no-harvest P99 = %s ---", spec.Name, batch, ms(base.P99(0)))
		t := newTable(r, col{head: "policy", w: -18, key: "policy"}, p99Cols[0], p99Cols[1],
			col{head: "speedup", w: 9, verb: "%.2fx", key: "batch_speedup"})
		for i := 0; i < len(sec.arms); i += 2 {
			with := sec.arms[i]
			speedup, err := harness.Speedup(with.res, sec.arms[i+1].res)
			if err != nil {
				return nil, fmt.Errorf("fig6 %s/%s: %w", batch, with.name, err)
			}
			t.add(batch.String(), with.name, vsBase(with.res, base)[:2], speedup)
		}
	}
	return r, nil
}

// Table2 reproduces the Memcached varying-load experiment: the offered
// load steps 80k -> 20k -> 160k QPS, and each policy's per-phase P99 and
// overall harvest are reported.
func Table2(cfg Config) (*Report, error) {
	// Each offered load runs for the full configured duration (the paper
	// gives each load a minute); short phases would let the transition
	// spike dominate the phase P99. Per-phase latencies need phase
	// boundaries on the server, aligned with the arrival process's phase
	// boundaries (which count from t=0), not with the warmup cut.
	phaseLen := cfg.Duration
	spec := apps.WithPhaseBoundaries(
		apps.MemcachedVaryingLoad([]float64{80000, 20000, 160000}, phaseLen),
		[]sim.Time{phaseLen, 2 * phaseLen})
	var sec section
	for _, p := range append([]string{"noharvest", "smartharvest", "prevpeak"}, fixedBuffers(5, 6, 7)...) {
		s := scenario(cfg, "table2-"+p, spec, controller(cfg, p))
		s.Duration = 3 * phaseLen
		sec.add(p, s)
	}
	if err := sweep(cfg, &sec); err != nil {
		return nil, err
	}

	r := &Report{ID: "table2", Title: "Memcached with varying load over time (80k/20k/160k QPS)"}
	t := newTable(r,
		col{head: "policy", w: -15, key: "policy"},
		col{head: "P99@80k", w: 12, verb: msVerb, key: "p99_80k_ns"},
		col{head: "P99@20k", w: 12, verb: msVerb, key: "p99_20k_ns"},
		col{head: "P99@160k", w: 12, verb: msVerb, key: "p99_160k_ns"},
		col{head: "harvested", w: 10, verb: "%.2f", key: "harvested_cores"})
	for _, a := range sec.arms {
		ph := a.res.Primaries[0].Phases
		if len(ph) < 3 {
			return nil, fmt.Errorf("table2: expected 3 phases, got %d", len(ph))
		}
		t.add("", a.name, ph[0].P99, ph[1].P99, ph[2].P99, a.res.AvgHarvestedCores)
	}
	return r, nil
}

// Fig7 reproduces the square-wave comparison against the conservative
// PrevPeak10 heuristic: the per-window allocation-vs-peak time series and
// the P99/harvest scatter.
func Fig7(cfg Config) (*Report, error) {
	spec := apps.SquareWave(8, 1, 500*sim.Millisecond)
	sec := withBase(scenario(cfg, "fig7-base", spec, harness.NoHarvestFactory()))
	for _, p := range []string{"prevpeak10", "smartharvest"} {
		s := scenario(cfg, "fig7-"+p, spec, controller(cfg, p))
		s.Observer = &windowSeries{}
		sec.add(p, s)
	}
	if err := sweep(cfg, sec); err != nil {
		return nil, err
	}

	r := &Report{ID: "fig7", Title: "synthetic square-wave primary vs PrevPeak10 (CPUBully batch)"}
	base := sec.base.res
	t := newTable(r, append([]col{{head: "policy", w: -18, key: "policy"}}, p99Cols...)...)
	t.add("", "noharvest", vsBase(base, nil))
	for _, a := range sec.arms {
		t.add("", a.name, vsBase(a.res, base))
	}
	// Time-series excerpt (Figure 7a): allocated cores vs observed peak
	// over two square-wave periods, per policy.
	excerptStart := cfg.Warmup + cfg.Duration/2
	excerptEnd := excerptStart + 2*sim.Second
	for _, a := range sec.arms {
		var alloc, peak []textplot.Point
		ws := a.scen.Observer.(*windowSeries)
		for j, p := range ws.target.Points {
			if sim.Time(p.Time) < excerptStart || sim.Time(p.Time) > excerptEnd {
				continue
			}
			ts := float64(p.Time) / 1e9
			alloc = append(alloc, textplot.Point{X: ts, Y: p.Value})
			peak = append(peak, textplot.Point{X: ts, Y: ws.peak.Points[j].Value})
		}
		r.addPlot(textplot.Render([]textplot.Series{
			{Name: "allocated cores", Glyph: '#', Points: alloc},
			{Name: "window peak usage", Glyph: '.', Points: peak},
		}, textplot.Options{
			Title:  fmt.Sprintf("%s: allocation vs square-wave usage", a.name),
			XLabel: "time s", YLabel: "cores", YMin: 0, YMax: 11,
			Width: 64, Height: 12,
		}))
	}
	return r, nil
}

// Fig8 reproduces the two-Memcached shared-cpugroup experiment.
func Fig8(cfg Config) (*Report, error) {
	return multiPrimary(cfg, "fig8", "Memcached + Memcached with CPUBully",
		[]apps.PrimarySpec{apps.Memcached(40000), apps.Memcached(40000)},
		[]int{17, 16, 15, 14})
}

// Fig9 reproduces the mixed-SLO experiment: Memcached + IndexServe.
func Fig9(cfg Config) (*Report, error) {
	return multiPrimary(cfg, "fig9", "Memcached + IndexServe with CPUBully",
		[]apps.PrimarySpec{apps.Memcached(40000), apps.IndexServe(500)},
		[]int{10, 8, 6})
}

func multiPrimary(cfg Config, id, title string, primaries []apps.PrimarySpec, buffers []int) (*Report, error) {
	sec := withBase(scenarioOf(cfg, id+"-base", harness.NoHarvestFactory(), true, primaries...))
	for _, p := range append([]string{"smartharvest"}, fixedBuffers(buffers...)...) {
		sec.add(p, scenarioOf(cfg, id+"-"+p, controller(cfg, p), true, primaries...))
	}
	if err := sweep(cfg, sec); err != nil {
		return nil, err
	}

	r := &Report{ID: id, Title: title}
	base := sec.base.res
	cols := []col{{head: "policy", w: -18, key: "policy"}}
	for i, p := range base.Primaries {
		cols = append(cols, col{head: p.Name + " P99", w: 16, verb: msVerb, key: fmt.Sprintf("p99_vm%d_ns", i)})
	}
	t := newTable(r, append(cols,
		col{head: "harvested", w: 10, verb: "%.2f", key: "harvested_cores"},
		col{head: "trips", w: 6, verb: "%d", key: "qos_trips"})...)
	// p99s lists each primary's P99; against a baseline, each shows its
	// delta beside it.
	p99s := func(res, base *harness.Result) []any {
		var vals []any
		for i := range res.Primaries {
			p := res.P99(i)
			if base == nil {
				vals = append(vals, p)
			} else {
				vals = append(vals, shown{fmt.Sprintf("%9s %6s", ms(p), pct(p, base.P99(i))), p})
			}
		}
		return vals
	}
	t.add("", "noharvest", p99s(base, nil), 0.0, 0)
	for _, a := range sec.arms {
		t.add("", a.name, p99s(a.res, base), a.res.AvgHarvestedCores, a.res.QoSTrips)
	}
	return r, nil
}

// Fig10 compares the conservative and aggressive short-term safeguards on
// Memcached + CPUBully.
func Fig10(cfg Config) (*Report, error) {
	return optionSweep(cfg, "fig10", "short-term safeguards (Memcached 40k + CPUBully)",
		col{head: "safeguard", w: -22, key: "safeguard"}, "invocations",
		[]string{core.ConservativeSafeguard.String(), core.AggressiveSafeguard.String()},
		[]core.SmartHarvestOptions{{Safeguard: core.ConservativeSafeguard}, {Safeguard: core.AggressiveSafeguard}})
}

// Fig13 compares the three cost functions of Figure 12 on Memcached: the
// paper's skewed cost, the symmetric cost (Figure 12a), and the hinged
// cost (Figure 12b) with the paper's constants (under penalty = initial
// allocation, flat over cost).
func Fig13(cfg Config) (*Report, error) {
	return optionSweep(cfg, "fig13", "cost functions (Memcached 40k + CPUBully)",
		col{head: "cost", w: -15, key: "cost"}, "safeguards",
		[]string{"skewed", "symmetric", "hinged"},
		[]core.SmartHarvestOptions{{}, {Cost: learner.SymmetricCost{}},
			{Cost: learner.HingedCost{UnderPenalty: 10, OverCost: 1}}})
}

// optionSweep runs SmartHarvest under each of opts (named by names) on
// Memcached 40k + CPUBully against a no-harvest reference line, reporting
// P99, harvest and short-term safeguard invocations.
func optionSweep(cfg Config, id, title string, label col, countHead string, names []string, opts []core.SmartHarvestOptions) (*Report, error) {
	spec := apps.Memcached(40000)
	sec := withBase(scenario(cfg, id+"-base", spec, harness.NoHarvestFactory()))
	for i, name := range names {
		sec.add(name, scenario(cfg, id+"-"+name, spec, harness.SmartHarvestFactory(opts[i])))
	}
	if err := sweep(cfg, sec); err != nil {
		return nil, err
	}

	r := &Report{ID: id, Title: title}
	base := sec.base.res
	t := newTable(r, append(append([]col{label}, p99Cols...),
		col{head: countHead, w: 12, verb: "%d", key: "safeguards"})...)
	t.line("no harvesting", vsBase(base, nil), nil)
	for _, a := range sec.arms {
		t.add("", a.name, vsBase(a.res, base), a.res.Safeguards)
	}
	return r, nil
}

// Fig11 shows the long-term safeguard rescuing a hard-to-predict primary
// mix (two Memcacheds with sharp aperiodic load swings).
func Fig11(cfg Config) (*Report, error) {
	primaries := []apps.PrimarySpec{apps.MemcachedSwinging(60000), apps.MemcachedSwinging(60000)}
	sec := withBase(scenarioOf(cfg, "fig11-base", harness.NoHarvestFactory(), false, primaries...))
	for i, name := range []string{"smartharvest (no long-term)", "smartharvest (long-term)"} {
		sec.add(name, scenarioOf(cfg, "fig11-"+name, smartharvest(cfg), i == 1, primaries...))
	}
	if err := sweep(cfg, sec); err != nil {
		return nil, err
	}

	r := &Report{ID: "fig11", Title: "long-term safeguard (2x swinging Memcached + CPUBully)"}
	base := sec.base.res
	t := newTable(r,
		col{head: "policy", w: -30, key: "policy"},
		col{head: "vm0 P99", w: 12, verb: msVerb, key: "p99_vm0_ns"},
		col{head: "vm1 P99", w: 12, verb: msVerb, key: "p99_vm1_ns"},
		p99Cols[1],
		col{head: "harvested", w: 10, verb: "%.2f", key: "harvested_cores"},
		col{head: "trips", w: 6, verb: "%d", key: "qos_trips"})
	t.line("noharvest", base.P99(0), base.P99(1), nil, 0.0, nil)
	for _, a := range sec.arms {
		res := a.res
		t.add("", a.name, res.P99(0), res.P99(1), pct(res.P99(0), base.P99(0)), res.AvgHarvestedCores, res.QoSTrips)
	}
	return r, nil
}

// Fig14 reproduces the grow/shrink latency CDFs for the two reassignment
// mechanisms by running the same harvesting scenario on each and reading
// the per-core move latencies.
func Fig14(cfg Config) (*Report, error) {
	var sec section
	for _, mech := range mechanisms {
		s := scenario(cfg, "fig14-"+mech.String(), apps.Memcached(40000), smartharvest(cfg))
		s.Mechanism = mech
		sec.add(mech.String(), s)
	}
	if err := sweep(cfg, &sec); err != nil {
		return nil, err
	}

	r := &Report{ID: "fig14", Title: "time to grow/shrink the ElasticVM by one core"}
	t := newTable(r,
		col{key: "op", hide: true},
		col{head: "mechanism/op", w: -22},
		col{head: "P50", w: 10, verb: msVerb, key: "p50_ns"},
		col{head: "P95", w: 10, verb: msVerb, key: "p95_ns"},
		col{head: "P99", w: 10, verb: msVerb, key: "p99_ns"},
		col{head: "max", w: 10, verb: msVerb, key: "max_ns"})
	quantiles := func(s metrics.Summary) []any { return []any{s.P50, s.P95, s.P99, s.Max} }
	toPoints := func(cdf []metrics.CDFPoint) []textplot.Point {
		var out []textplot.Point
		for _, p := range cdf {
			out = append(out, textplot.Point{X: float64(p.Value) / 1e6, Y: p.Fraction * 100})
		}
		return out
	}
	for _, a := range sec.arms {
		t.add(a.name, "grow", a.name+" grow", quantiles(a.res.Grow))
		t.add(a.name, "shrink", a.name+" shrink", quantiles(a.res.Shrink))
		r.addPlot(textplot.Render([]textplot.Series{
			{Name: "grow", Glyph: '+', Points: toPoints(a.res.GrowCDF)},
			{Name: "shrink", Glyph: '*', Points: toPoints(a.res.ShrinkCDF)},
		}, textplot.Options{
			Title:  fmt.Sprintf("%s: CDF of one-core reassignment latency", a.name),
			XLabel: "milliseconds", YLabel: "% of samples", YMin: 0, YMax: 100,
			Width: 60, Height: 12,
		}))
	}
	return r, nil
}

// Fig15 reproduces the responsiveness-vs-learning comparison: IndexServe
// at four loads, cpugroups vs IPIs, SmartHarvest vs a fixed-buffer sweep.
// All four loads (36 scenarios) share one worker pool.
func Fig15(cfg Config) (*Report, error) {
	var secs []*section
	for _, qps := range []float64{500, 1000, 1500, 2000} {
		spec := apps.IndexServe(qps)
		sec := withBase(scenario(cfg, "fig15-base", spec, harness.NoHarvestFactory()))
		for _, mech := range mechanisms {
			for _, p := range append([]string{"smartharvest"}, fixedBuffers(6, 4, 2)...) {
				s := scenario(cfg, fmt.Sprintf("fig15-%v-%s", mech, p), spec, controller(cfg, p))
				s.Mechanism = mech
				sec.add(p, s)
			}
		}
		secs = append(secs, sec)
	}
	if err := sweep(cfg, secs...); err != nil {
		return nil, err
	}

	r := &Report{ID: "fig15", Title: "SmartHarvest using cpugroups vs IPIs across IndexServe loads"}
	for _, sec := range secs {
		qps, base := sec.base.scen.Primaries[0].QPS, sec.base.res
		r.addf("--- IndexServe (%.0f QPS), no-harvest P99 = %s ---", qps, ms(base.P99(0)))
		t := newTable(r, append([]col{
			{key: "mechanism", hide: true}, {key: "policy", hide: true}, {head: "config", w: -28},
		}, p99Cols...)...)
		for _, a := range sec.arms {
			mech := a.scen.Mechanism
			t.add(fmt.Sprintf("qps-%.0f", qps), mech, a.name, fmt.Sprintf("%v %s", mech, a.name), vsBase(a.res, base))
		}
	}
	return r, nil
}
