package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"smartharvest/internal/sim"
)

// RunAll executes independent scenarios on a pool of at most parallel
// workers (parallel < 1 means runtime.GOMAXPROCS(0), as in ForEach) and
// returns their results in input order, so output is byte-identical to
// calling Run serially on each scenario.
//
// Safety argument: Run is a pure function of its Scenario. Each call
// builds its own sim.Loop, simrng stream (from Scenario.Seed), machine,
// and metrics; no package in the simulation path holds mutable global
// state. ControllerFactory values are shared across scenarios but only
// construct fresh controllers. go test -race over this package keeps the
// claim honest.
//
// Errors are captured per scenario: a failed scenario leaves a nil entry
// in the result slice and contributes one wrapped error (carrying its
// index and name) to the joined error; other scenarios still run to
// completion.
func RunAll(scenarios []Scenario, parallel int) ([]*Result, error) {
	results := make([]*Result, len(scenarios))
	errs := make([]error, len(scenarios))
	ForEach(len(scenarios), parallel, func(i int) {
		res, err := Run(scenarios[i])
		if err != nil {
			errs[i] = fmt.Errorf("scenario %d (%s): %w", i, scenarios[i].Name, err)
			return
		}
		results[i] = res
	})
	return results, errors.Join(errs...)
}

// ForEach calls fn(i) for every i in [0, n) on a bounded worker pool and
// returns the number of workers it used: workers, or
// runtime.GOMAXPROCS(0) when workers < 1, clamped to n. Indices are
// handed out in ascending order, and a single worker runs them inline,
// so a caller that collects by index gets output independent of the pool
// size. It is the one worker pool behind RunAll, the experiment sweeps
// and experiments.RunGrid.
func ForEach(n, workers int, fn func(i int)) int {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return workers
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
	return workers
}

// simTimeExecuted accumulates the simulated time advanced by every Run
// in this process, across goroutines. cmd/experiments uses deltas of
// this counter to report sim-seconds per wall-second.
var simTimeExecuted atomic.Int64

// SimTimeExecuted returns the cumulative simulated time executed by all
// Run calls so far (monotonic; read deltas around a region of interest).
func SimTimeExecuted() sim.Time { return sim.Time(simTimeExecuted.Load()) }

// BaselineScenario returns s reconfigured as the no-harvest baseline
// RunSpeedup compares against: same workloads and seed, ElasticVM pinned
// to its minimum, and neither s's Observer nor its Checker, which belong
// to the run of s; attach the baseline's own.
func BaselineScenario(s Scenario) Scenario {
	base := s
	base.Name = s.Name + "-baseline"
	base.Controller = NoHarvestFactory()
	base.LongTermSafeguard = false
	base.Observer, base.Checker = nil, nil
	return base
}

// Speedup computes the batch completion-time speedup of a policy run
// over its no-harvest baseline (the paper's Figure 6 metric).
func Speedup(with, baseline *Result) (float64, error) {
	if !with.BatchFinished || !baseline.BatchFinished {
		return 0, fmt.Errorf("harness: batch job did not finish (with=%v baseline=%v)",
			with.BatchFinished, baseline.BatchFinished)
	}
	return float64(baseline.BatchTime) / float64(with.BatchTime), nil
}
