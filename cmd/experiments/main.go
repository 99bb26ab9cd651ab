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
// The run flags fill one grid run (internal/experiments) per positional
// id, typed as a -grid file's runs decode, so they are validated and
// executed exactly as a -grid file is.
// Every experiment and seed runs on one worker pool that also bounds each
// run's scenarios; reports stream to stdout in request order. All output
// is byte-identical to a serial run (-parallel 1) with the same seed.
//
// Run flags (refused together with -grid, which declares its own):
//
//	-duration  measured simulated time per run (default 30s)
//	-warmup    warmup before measurement (default 2s)
//	-seed      first RNG seed, at least 1 (default 1)
//	-seeds     consecutive seeds per experiment (default 1)
//	-quick     shortcut for -duration 6s
//	-out DIR   also write <DIR>/<id>.txt
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
//
// Flags of both front-ends:
//
//	-parallel  worker-pool size for runs and their scenarios
//	           (default 0 = GOMAXPROCS; 1 = fully serial)
//	-trace DIR write one JSONL event trace per run (scenario or
//	           fleet-scheduler run) into DIR (poll samples omitted; see
//	           internal/obs). Traces are byte-identical at any -parallel
//	           setting.
//	-list      list experiment IDs and exit
//	-cpuprofile FILE, -memprofile FILE
//	           write a CPU / heap profile of the whole invocation
//	           (`go tool pprof FILE`)
//
// Grid mode (declarative experiment plans; see internal/experiments):
//
//	-grid FILE     run the JSON experiment grid instead of the run flags
//	               and positional experiments; per-run artifacts
//	               (<id>.csv, <id>.json, <id>.txt, manifest.csv) are
//	               byte-identical at any -parallel setting
//	-grid-out DIR  artifact directory for -grid (default grid-out)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"smartharvest/internal/experiments"
	"smartharvest/internal/faults"
	"smartharvest/internal/learner"
	"smartharvest/internal/market"
	"smartharvest/internal/profile"
	"smartharvest/internal/sim"
	"smartharvest/internal/workload"
)

// runFlags are the flags that describe the runs; a -grid file declares
// those itself, so -grid refuses them.
var runFlags = []string{"duration", "warmup", "quick", "seed", "seeds", "check",
	"faults", "predictor", "pools", "tenants", "out"}

func main() {
	// The run flags fill one run per positional id, all resolved as a
	// grid's runs are.
	def := experiments.GridRun{Seeds: 1, Config: experiments.Config{Duration: 30 * sim.Second, Warmup: 2 * sim.Second, Seed: 1}}
	flag.TextVar(&def.Duration, "duration", def.Duration, "measured simulated time per run")
	flag.TextVar(&def.Warmup, "warmup", def.Warmup, "simulated warmup before measurement")
	flag.Uint64Var(&def.Seed, "seed", def.Seed, "first RNG seed (at least 1)")
	flag.IntVar(&def.Seeds, "seeds", def.Seeds, "number of consecutive seeds to run each experiment with (the paper averages 3 runs)")
	quick := flag.Bool("quick", false, "short runs (6s simulated)")
	outDir := flag.String("out", "", "directory to also write per-experiment reports to")
	flag.BoolVar(&def.Check, "check", false, "verify safety invariants on every scenario run (fails the experiment on violation)")
	flag.TextVar(&def.Faults, "faults", def.Faults, "fault plan for the sched experiment's fleet as comma-separated key=value pairs (keys: "+
		strings.Join(faults.Keys(""), ", ")+"; fleet-level: "+strings.Join(faults.Keys("fleet"), ", ")+")")
	flag.TextVar(&def.Predictor, "predictor", def.Predictor, "peak predictor for every smartharvest row: "+strings.Join(learner.Names(), ", "))
	flag.TextVar(&def.Pools, "pools", def.Pools, "harvested-capacity pool plan for the sched and market experiments as ';'-separated key=value lists (keys: "+
		strings.Join(market.Keys(), ", ")+"; market runs it in place of its overcommit x tier-mix grid)")
	flag.Func("tenants", "tenant workload-characterization class for the sched and market experiments: "+
		workload.ClassNames.List()+" (default: the four-primaries mix)", func(s string) error {
		def.TenantMix = new(workload.Class)
		return def.TenantMix.UnmarshalText([]byte(s))
	})
	parallel := flag.Int("parallel", 0, "run and scenario worker-pool size (0 = GOMAXPROCS, 1 = serial)")
	traceDir := flag.String("trace", "", "directory to write per-run JSONL event traces to")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	gridFile := flag.String("grid", "", "run the declarative JSON experiment grid in FILE (see internal/experiments)")
	gridOut := flag.String("grid-out", "grid-out", "artifact directory for -grid runs")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (allocations included) to this file when the run ends")
	// A refused flag value prints its error, not the whole usage.
	usage := flag.Usage
	flag.Usage = func() {}
	flag.CommandLine.Init(os.Args[0], flag.ContinueOnError)
	switch err := flag.CommandLine.Parse(os.Args[1:]); {
	case err == flag.ErrHelp:
		usage()
		os.Exit(0)
	case err != nil:
		os.Exit(2)
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Println(e.ID)
		}
		return
	}
	fail := func(code int, err error) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(code)
	}

	var runs []experiments.GridRun // the flags' runs, one per positional id
	var resolved []experiments.ResolvedRun
	var err error
	if *gridFile != "" {
		var refused []string
		flag.Visit(func(f *flag.Flag) {
			if slices.Contains(runFlags, f.Name) {
				refused = append(refused, "-"+f.Name)
			}
		})
		if refused = append(refused, flag.Args()...); len(refused) > 0 {
			fail(2, fmt.Errorf("experiments: -grid %s declares the runs; refusing %s", *gridFile, strings.Join(refused, " ")))
		}
		var grid *experiments.Grid
		if grid, err = experiments.LoadGrid(*gridFile); err != nil {
			fail(2, err)
		}
		resolved, err = grid.Expand()
	} else {
		if def.Seed == 0 {
			fail(2, fmt.Errorf("experiments: -seed 0: seeds start at 1"))
		}
		if *quick {
			def.Duration = 6 * sim.Second
		}
		ids := flag.Args()
		if len(ids) == 0 {
			for _, e := range experiments.All() {
				ids = append(ids, e.ID)
			}
		}
		for _, id := range ids {
			run := def
			run.Experiment = id
			runs = append(runs, run)
		}
		resolved, err = experiments.Resolve(runs)
	}
	if err != nil {
		fail(2, err)
	}
	for _, dir := range []string{*traceDir, *outDir} {
		if dir != "" {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fail(1, fmt.Errorf("experiments: %w", err))
			}
		}
	}
	check := false
	for i := range resolved {
		resolved[i].Cfg.TraceDir = *traceDir
		check = check || resolved[i].Cfg.Check
	}

	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(1, fmt.Errorf("experiments: %w", err))
	}
	wallStart := time.Now()
	code, files := 0, 1 // files counts -grid-out's: the manifest and three per successful run
	var results []experiments.RunResult
	var tally experiments.Tally
	workers := experiments.RunGrid(resolved, *parallel, func(rr experiments.RunResult) {
		results = append(results, rr)
		tally.SimTime += rr.SimTime
		tally.Checked += rr.Checked
		tally.Violations += rr.Violations
		switch {
		case rr.Err != nil:
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", rr.ID, rr.Err)
			code = 1
		case *gridFile != "":
			fmt.Printf("[%s]\n%s\n", rr.ID, rr.Report)
			files += 3
		default:
			fmt.Print(seedReport(rr, def.Seeds))
			fmt.Printf("(%s wall time)\n\n", rr.Wall.Round(10*time.Millisecond))
		}
	})

	if *gridFile != "" {
		if err := experiments.WriteArtifacts(*gridOut, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		} else {
			fmt.Printf("wrote %d artifact files to %s\n", files, *gridOut)
		}
	} else {
		if *outDir != "" {
			if err := writeReports(*outDir, runs, results, def.Seeds); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				code = 1
			}
		}
		if len(runs) > 1 {
			printSummary(runs, results, time.Since(wallStart), tally.SimTime, workers)
		}
	}
	if check {
		fmt.Printf("invariant checks: %d scenario runs verified, %d violations\n", tally.Checked, tally.Violations)
		if tally.Violations > 0 {
			code = 1
		}
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

// seedReport is one run's report as the positional front-end prints and
// writes it: under a [seed N] header when each experiment runs several
// seeds.
func seedReport(rr experiments.RunResult, seeds int) string {
	if seeds > 1 {
		return fmt.Sprintf("[seed %d]\n%s", rr.Cfg.Seed, rr.Report)
	}
	return rr.Report.String()
}

// writeReports writes each experiment's reports, all its seeds in order,
// to <dir>/<id>.txt; an experiment none of whose seeds succeeded writes
// nothing.
func writeReports(dir string, runs []experiments.GridRun, results []experiments.RunResult, seeds int) error {
	texts := make([]string, len(runs))
	for _, rr := range results {
		if rr.Err == nil {
			texts[rr.Run] += seedReport(rr, seeds)
		}
	}
	for i, text := range texts {
		if text == "" {
			continue
		}
		path := filepath.Join(dir, runs[i].Experiment+".txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return nil
}

// printSummary reports per-experiment wall time and the aggregate
// simulation throughput, so parallel speedups are visible without
// running benchmarks. An experiment's wall time is the sum of its seeds',
// and runs overlap on the worker pool, so they sum to more than the total.
func printSummary(runs []experiments.GridRun, results []experiments.RunResult, wall time.Duration, simTime sim.Time, workers int) {
	walls := make([]time.Duration, len(runs))
	status := make([]string, len(runs))
	for _, rr := range results {
		walls[rr.Run] += rr.Wall
		if rr.Err != nil {
			status[rr.Run] = "  FAILED"
		}
	}
	fmt.Printf("== summary (%d workers) ==\n", workers)
	for i, run := range runs {
		fmt.Printf("%-12s %8s%s\n", run.Experiment, walls[i].Round(10*time.Millisecond), status[i])
	}
	simSec := simTime.Seconds()
	wallSec := wall.Seconds()
	rate := 0.0
	if wallSec > 0 {
		rate = simSec / wallSec
	}
	fmt.Printf("total: %d experiments in %s wall; %.0f sim-s executed (%.1f sim-s/wall-s)\n",
		len(runs), wall.Round(10*time.Millisecond), simSec, rate)
}
