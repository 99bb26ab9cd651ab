// Command experiments regenerates the tables and figures of the
// SmartHarvest paper's evaluation on the simulated testbed.
//
// Usage:
//
//	experiments [flags] [experiment ...]
//
// With no arguments it runs every experiment in the paper's order. Each
// report prints to stdout; -out additionally writes one file per
// experiment.
//
// Scenarios within an experiment always run on harness.RunAll's worker
// pool, and when several experiments are requested the experiments
// themselves also run concurrently; reports stream to stdout in request
// order regardless. All output is byte-identical to a serial run
// (-parallel 1) with the same seed.
//
// Flags:
//
//	-duration  measured simulated time per run (default 30s)
//	-warmup    warmup before measurement (default 2s)
//	-seed      RNG seed (default 1)
//	-seeds     consecutive seeds per experiment (default 1)
//	-parallel  worker-pool size for scenarios and experiments
//	           (default 0 = GOMAXPROCS; 1 = fully serial)
//	-quick     shortcut for -duration 6s
//	-out DIR   also write <DIR>/<id>.txt
//	-trace DIR write one JSONL event trace per scenario into DIR
//	           (poll samples omitted; see internal/obs). Traces are
//	           byte-identical at any -parallel setting.
//	-check     attach the invariant checker (internal/check) to every
//	           scenario run; any violation fails its experiment with the
//	           checker's report, and a verification tally is printed
//	-faults    fault plan injected into the sched experiment's fleet
//	           (key=value pairs; see internal/faults.ParsePlan for the
//	           agent and fleet keys). Experiments that own their plans
//	           (chaos, fleetchaos) ignore it.
//	-predictor swap the peak predictor on every smartharvest scenario
//	           (csoaa, adagrad, ewma, periodic, mlp, ensemble); the
//	           predictors experiment ignores this and always sweeps all
//	-pools     harvested-capacity pool plan (internal/market grammar) for
//	           the sched and market experiments: sched opens it on every
//	           run's fleet, market runs it in place of its built-in
//	           overcommit × tier-mix grid; other experiments ignore it
//	-tenants   tenant workload-characterization class (flat, periodic,
//	           bursty, mixed) replacing the sched/market fleets' default
//	           tenant mix; other experiments ignore it
//	-list      list experiment IDs and exit
//	-cpuprofile FILE, -memprofile FILE
//	           write a CPU / heap profile of the whole invocation
//	           (`go tool pprof FILE`)
//
// Grid mode (declarative experiment plans; see internal/bench):
//
//	-grid FILE     run the JSON experiment grid instead of positional
//	               experiments, honoring -parallel; per-run artifacts
//	               (<id>.csv, <id>.json, <id>.txt, manifest.csv) are
//	               byte-identical at any -parallel setting
//	-grid-out DIR  artifact directory for -grid (default grid-out)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"smartharvest/internal/bench"
	"smartharvest/internal/experiments"
	"smartharvest/internal/faults"
	"smartharvest/internal/harness"
	"smartharvest/internal/market"
	"smartharvest/internal/profile"
	"smartharvest/internal/sim"
	"smartharvest/internal/workload"
)

// jobOutput is everything one experiment (all its seeds) produced.
type jobOutput struct {
	id       string
	stdout   strings.Builder // report text + per-seed wall times
	combined []byte          // what -out writes
	errs     []error
	wall     time.Duration
}

func main() {
	duration := flag.Duration("duration", 30*time.Second, "measured simulated time per run")
	warmup := flag.Duration("warmup", 2*time.Second, "simulated warmup before measurement")
	seed := flag.Uint64("seed", 1, "RNG seed")
	seeds := flag.Int("seeds", 1, "number of consecutive seeds to run each experiment with (the paper averages 3 runs)")
	parallel := flag.Int("parallel", 0, "scenario/experiment worker-pool size (0 = GOMAXPROCS, 1 = serial)")
	quick := flag.Bool("quick", false, "short runs (6s simulated)")
	outDir := flag.String("out", "", "directory to also write per-experiment reports to")
	traceDir := flag.String("trace", "", "directory to write per-scenario JSONL event traces to")
	checkRuns := flag.Bool("check", false, "verify safety invariants on every scenario run (fails the experiment on violation)")
	faultsPlan := flag.String("faults", "", "fault plan for the sched experiment's fleet (key=value pairs; agent keys: hfail, hdelay, drop, stale, noise, stall, crash; fleet keys: scrash, gdrop, gdelay, rstale, rloss, srestartdur, gdelaydur; e.g. 'drop=0.01,scrash=0.002')")
	predictor := flag.String("predictor", "", "peak predictor for every smartharvest row: csoaa (default), adagrad, ewma, periodic, mlp, ensemble")
	poolSpec := flag.String("pools", "", "harvested-capacity pool plan for the sched and market experiments, e.g. 'overcommit=1.5;name=acme,tier=standard,reserved=4,price=2' (see internal/market; market runs it in place of its overcommit x tier-mix grid)")
	tenantMix := flag.String("tenants", "", "tenant workload-characterization class for the sched and market experiments: flat, periodic, bursty, mixed (default: the four-primaries mix)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	gridFile := flag.String("grid", "", "run the declarative JSON experiment grid in FILE (see internal/bench)")
	gridOut := flag.String("grid-out", "grid-out", "artifact directory for -grid runs")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (allocations included) to this file when the run ends")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.ID)
		}
		return
	}
	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	// exit ends the process through the profiles: os.Exit runs no defers.
	exit := func(code int) {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			code = max(code, 1)
		}
		os.Exit(code)
	}
	if *gridFile != "" {
		exit(runGrid(*gridFile, *gridOut, *parallel))
	}

	cfg := experiments.Config{
		Duration: sim.Duration(*duration),
		Warmup:   sim.Duration(*warmup),
		Seed:     *seed,
		Parallel: *parallel,
		TraceDir: *traceDir,
		Check:    *checkRuns,
	}
	if *quick {
		cfg.Duration = 6 * sim.Second
	}
	if *faultsPlan != "" {
		plan, err := faults.ParsePlan(*faultsPlan)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		cfg.Faults = plan
	}
	if *predictor != "" {
		kind, err := harness.ParsePredictor(*predictor)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		cfg.Predictor = kind
	}
	if *poolSpec != "" {
		if _, err := market.ParsePools(*poolSpec); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		cfg.Pools = *poolSpec
	}
	if *tenantMix != "" {
		if _, err := workload.ParseClass(*tenantMix); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		cfg.TenantMix = *tenantMix
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			exit(1)
		}
	}

	ids := flag.Args()
	if len(ids) == 0 {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			exit(1)
		}
	}

	if *seeds < 1 {
		*seeds = 1
	}

	simStart := harness.SimTimeExecuted()
	wallStart := time.Now()

	// Run experiments on a bounded pool; stream reports in request order.
	ready := make([]chan *jobOutput, len(ids))
	for i := range ready {
		ready[i] = make(chan *jobOutput, 1)
	}
	used := make(chan int, 1)
	go func() {
		used <- harness.ForEach(len(ids), *parallel, func(i int) {
			ready[i] <- runExperiment(ids[i], cfg, *seeds)
		})
	}()

	exitCode := 0
	outputs := make([]*jobOutput, len(ids))
	for i := range ids {
		out := <-ready[i]
		outputs[i] = out
		fmt.Print(out.stdout.String())
		for _, err := range out.errs {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", out.id, err)
			exitCode = 1
		}
		if *outDir != "" && len(out.combined) > 0 {
			path := filepath.Join(*outDir, out.id+".txt")
			if err := os.WriteFile(path, out.combined, 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: writing %s: %v\n", path, err)
				exitCode = 1
			}
		}
	}

	if len(ids) > 1 {
		printSummary(outputs, time.Since(wallStart), harness.SimTimeExecuted()-simStart, <-used)
	}
	if *checkRuns {
		runs, violations := experiments.CheckStats()
		fmt.Printf("invariant checks: %d scenario runs verified, %d violations\n", runs, violations)
		if violations > 0 {
			exitCode = 1
		}
	}
	exit(exitCode)
}

// runGrid executes a declarative experiment grid and writes per-run
// artifacts, streaming each run's human report to stdout in order.
func runGrid(gridPath, outDir string, parallel int) int {
	grid, err := bench.LoadGrid(gridPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 2
	}
	results, err := bench.RunGrid(grid, parallel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 2
	}
	code := 0
	for _, rr := range results {
		if rr.Err != nil {
			fmt.Fprintf(os.Stderr, "experiments: grid run %s: %v\n", rr.ID, rr.Err)
			code = 1
			continue
		}
		fmt.Printf("[%s]\n%s\n", rr.ID, rr.Report)
	}
	if err := bench.WriteArtifacts(outDir, results); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 1
	}
	fmt.Printf("wrote %d artifact files to %s\n", 1+3*countOK(results), outDir)
	return code
}

func countOK(results []bench.RunResult) int {
	n := 0
	for _, rr := range results {
		if rr.Err == nil {
			n++
		}
	}
	return n
}

// runExperiment executes one experiment across its seeds and collects
// everything it printed, so concurrent experiments do not interleave.
func runExperiment(id string, cfg experiments.Config, seeds int) *jobOutput {
	out := &jobOutput{id: id}
	start := time.Now()
	defer func() { out.wall = time.Since(start) }()

	run, ok := experiments.Lookup(id)
	if !ok {
		out.errs = append(out.errs, fmt.Errorf("unknown experiment %q (use -list)", id))
		return out
	}
	for rep := 0; rep < seeds; rep++ {
		runCfg := cfg
		runCfg.Seed = cfg.Seed + uint64(rep)
		repStart := time.Now()
		report, err := run(runCfg)
		if err != nil {
			out.errs = append(out.errs, err)
			continue
		}
		if seeds > 1 {
			fmt.Fprintf(&out.stdout, "[seed %d]\n", runCfg.Seed)
			out.combined = append(out.combined, fmt.Sprintf("[seed %d]\n", runCfg.Seed)...)
		}
		out.stdout.WriteString(report.String())
		fmt.Fprintf(&out.stdout, "(%s wall time)\n\n", time.Since(repStart).Round(10*time.Millisecond))
		out.combined = append(out.combined, report.String()...)
	}
	return out
}

// printSummary reports per-experiment wall time and the aggregate
// simulation throughput, so parallel speedups are visible without
// running benchmarks. Note that per-experiment wall times overlap when
// experiments run concurrently, so they sum to more than the total.
func printSummary(outputs []*jobOutput, wall time.Duration, simTime sim.Time, workers int) {
	fmt.Printf("== summary (%d workers) ==\n", workers)
	for _, out := range outputs {
		status := ""
		if len(out.errs) > 0 {
			status = "  FAILED"
		}
		fmt.Printf("%-12s %8s%s\n", out.id, out.wall.Round(10*time.Millisecond), status)
	}
	simSec := simTime.Seconds()
	wallSec := wall.Seconds()
	rate := 0.0
	if wallSec > 0 {
		rate = simSec / wallSec
	}
	fmt.Printf("total: %d experiments in %s wall; %.0f sim-s executed (%.1f sim-s/wall-s)\n",
		len(outputs), wall.Round(10*time.Millisecond), simSec, rate)
}
