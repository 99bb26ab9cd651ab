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
// The runs within an experiment always share one worker pool, and when several experiments are requested the experiments
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
//	-trace DIR write one JSONL event trace per run (scenario or
//	           fleet-scheduler run) into DIR (poll samples omitted; see
//	           internal/obs). Traces are byte-identical at any -parallel
//	           setting.
//	-check     attach the invariant checker (internal/check) to every
//	           scenario and scheduler run; any violation fails its
//	           experiment with the checker's report, and a verification
//	           tally is printed
//	-faults    fault plan injected into the sched experiment's fleet
//	           (key=value pairs; -h lists the agent and fleet keys).
//	           Experiments that own their plans (chaos, fleetchaos)
//	           ignore it.
//	-predictor swap the peak predictor on every smartharvest scenario
//	           (-h lists them); the predictors experiment ignores this
//	           and always sweeps all
//	-pools     harvested-capacity pool plan (internal/market grammar) for
//	           the sched and market experiments: sched opens it on every
//	           run's fleet, market runs it in place of its built-in
//	           overcommit × tier-mix grid; other experiments ignore it
//	-tenants   tenant workload-characterization class (-h lists them)
//	           replacing the sched/market fleets' default tenant mix;
//	           other experiments ignore it
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
	"smartharvest/internal/learner"
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
	var cfg experiments.Config
	duration := flag.Duration("duration", 30*time.Second, "measured simulated time per run")
	warmup := flag.Duration("warmup", 2*time.Second, "simulated warmup before measurement")
	flag.Uint64Var(&cfg.Seed, "seed", 1, "RNG seed")
	seeds := flag.Int("seeds", 1, "number of consecutive seeds to run each experiment with (the paper averages 3 runs)")
	flag.IntVar(&cfg.Parallel, "parallel", 0, "scenario/experiment worker-pool size (0 = GOMAXPROCS, 1 = serial)")
	quick := flag.Bool("quick", false, "short runs (6s simulated)")
	outDir := flag.String("out", "", "directory to also write per-experiment reports to")
	flag.StringVar(&cfg.TraceDir, "trace", "", "directory to write per-run JSONL event traces to")
	flag.BoolVar(&cfg.Check, "check", false, "verify safety invariants on every scenario run (fails the experiment on violation)")
	flag.TextVar(&cfg.Faults, "faults", cfg.Faults, "fault plan for the sched experiment's fleet as comma-separated key=value pairs (keys: "+
		strings.Join(faults.Keys(""), ", ")+"; fleet-level: "+strings.Join(faults.Keys("fleet"), ", ")+")")
	flag.TextVar(&cfg.Predictor, "predictor", cfg.Predictor, "peak predictor for every smartharvest row: "+strings.Join(learner.Names(), ", "))
	flag.Func("pools", "harvested-capacity pool plan for the sched and market experiments as ';'-separated key=value lists (keys: "+
		strings.Join(market.Keys(), ", ")+"; market runs it in place of its overcommit x tier-mix grid)", func(s string) error {
		cfg.Pools = s
		_, err := market.ParsePools(s)
		return err
	})
	flag.Func("tenants", "tenant workload-characterization class for the sched and market experiments: "+
		workload.ClassNames.List()+" (default: the four-primaries mix)", func(s string) error {
		cfg.TenantMix = s
		_, err := workload.ParseClass(s)
		return err
	})
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
		exit(runGrid(*gridFile, *gridOut, cfg.Parallel))
	}

	cfg.Duration = sim.Duration(*duration)
	cfg.Warmup = sim.Duration(*warmup)
	if *quick {
		cfg.Duration = 6 * sim.Second
	}
	if cfg.TraceDir != "" {
		if err := os.MkdirAll(cfg.TraceDir, 0o755); err != nil {
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
		used <- harness.ForEach(len(ids), cfg.Parallel, func(i int) {
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
	if cfg.Check {
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
