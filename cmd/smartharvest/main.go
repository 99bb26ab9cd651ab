// Command smartharvest runs a single harvesting scenario on the simulated
// testbed and prints its results: per-primary latency percentiles,
// harvested cores, safeguard activity, and reassignment latencies.
//
// Usage examples:
//
//	smartharvest -primary memcached:40000 -policy smartharvest -duration 30s
//	smartharvest -primary memcached:40000 -primary indexserve:500 -policy fixedbuffer:6
//	smartharvest -primary indexserve:500 -batch hdinsight -mechanism ipis -speedup
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"smartharvest"
	"smartharvest/internal/apps"
	"smartharvest/internal/faults"
	"smartharvest/internal/harness"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/profile"
	"smartharvest/internal/sim"
)

func fmtNS(ns int64) string { return sim.Time(ns).String() }

// parsePolicy parses -policy and -predictor against the allocation the
// run gives its primaries: harness.DefaultPrimaryVMCores cores each.
func parsePolicy(spec, predictor string, primaries int) (smartharvest.ControllerFactory, error) {
	return harness.ParsePolicy(spec, primaries*harness.DefaultPrimaryVMCores, predictor)
}

func main() {
	s := smartharvest.Scenario{Name: "cli", BatchWork: 8 * sim.Second, Duration: 30 * sim.Second, Warmup: 2 * sim.Second}
	flag.Func("primary", "primary workload as name[:qps]; repeatable (default memcached:40000)", func(v string) error {
		spec, err := apps.ParsePrimary(v)
		if err == nil {
			s.Primaries = append(s.Primaries, spec)
		}
		return err
	})
	policy := flag.String("policy", "smartharvest", "harvesting policy: "+harness.PolicyUsage())
	predictor := flag.String("predictor", "", fmt.Sprintf("peak predictor for -policy smartharvest: %s (default csoaa)",
		strings.Join(smartharvest.PredictorNames(), ", ")))
	flag.TextVar(&s.Batch, "batch", s.Batch, "ElasticVM workload: "+harness.BatchKindNames.List())
	flag.TextVar(&s.BatchWork, "batch-work", s.BatchWork, "finite batch allotment in core-time (-batch finite)")
	flag.IntVar(&s.BatchWidth, "batch-width", 0, "finite batch parallelism cap in cores, 0 = all (-batch finite)")
	flag.TextVar(&s.Mechanism, "mechanism", s.Mechanism, "core reassignment mechanism: "+hypervisor.MechanismNames.List())
	flag.TextVar(&s.Duration, "duration", s.Duration, "measured simulated time")
	flag.TextVar(&s.Warmup, "warmup", s.Warmup, "simulated warmup")
	flag.Uint64Var(&s.Seed, "seed", 1, "RNG seed")
	flag.BoolVar(&s.LongTermSafeguard, "long-term-safeguard", true, "enable the long-term QoS safeguard (for a policy with safeguards)")
	speedup := flag.Bool("speedup", false, "also run a NoHarvest baseline and report the batch speedup")
	flag.TextVar(&s.Faults, "faults", s.Faults, "fault-injection plan as comma-separated key=value pairs (keys: "+
		strings.Join(faults.Keys(""), ", ")+"; the fleet keys "+strings.Join(faults.Keys("fleet"), ", ")+
		" need a multi-server fleet and are rejected here)")
	trace := flag.String("trace", "", "write a JSONL event trace of the run to this file (poll samples included)")
	checkRun := flag.Bool("check", false, "verify the run against the safety invariants and print the report (exit 1 on violation)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (allocations included) to this file after the run")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "smartharvest: %v\n", err)
		os.Exit(1)
	}

	if s.Warmup <= 0 {
		fail(fmt.Errorf("-warmup %v: want a positive warmup (zero would run the 2s default)", s.Warmup))
	}
	if len(s.Primaries) == 0 {
		s.Primaries = []smartharvest.PrimarySpec{smartharvest.Memcached(40000)}
	}
	var err error
	if s.Controller, err = parsePolicy(*policy, *predictor, len(s.Primaries)); err != nil {
		fail(err)
	}

	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fail(err)
		}
		sink := smartharvest.TraceWriter(f)
		defer func() {
			if err := sink.Flush(); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
		}()
		s.Observer = sink
	}

	var checker *smartharvest.Checker
	if *checkRun {
		// With -speedup, only the harvesting run is verified and traced:
		// the baseline scenario drops the checker and the observer.
		checker = smartharvest.NewChecker()
		s.Checker = checker
	}

	stopProfiles, err := profile.Start(*cpuProfile, *memProfile)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	var res *smartharvest.Result
	if *speedup {
		sp, with, baseline, err := smartharvest.RunSpeedup(s)
		if err != nil {
			fail(err)
		}
		res = with
		fmt.Printf("batch speedup: %.2fx (%v with harvesting vs %v on the ElasticVM minimum)\n",
			sp, with.BatchTime, baseline.BatchTime)
	} else {
		res, err = smartharvest.Run(s)
		if err != nil {
			fail(err)
		}
	}
	wall := time.Since(start)
	if err := stopProfiles(); err != nil {
		fail(err)
	}

	fmt.Printf("policy=%s mechanism=%s simulated=%v wall=%v\n",
		res.Policy, res.Mechanism, res.Duration, wall.Round(time.Millisecond))
	for _, p := range res.Primaries {
		fmt.Printf("primary %-18s requests=%-9d P50=%-12s P95=%-12s P99=%-12s P99.9=%s\n",
			p.Name, p.Completed, fmtNS(p.Latency.P50), fmtNS(p.Latency.P95),
			fmtNS(p.Latency.P99), fmtNS(p.Latency.P999))
	}
	fmt.Printf("harvested: avg %.2f cores (elastic avg %.2f incl. minimum); elastic executed %.1f core-seconds\n",
		res.AvgHarvestedCores, res.AvgElasticCores, res.ElasticCPUSeconds)
	if res.BatchFinished {
		fmt.Printf("batch finished at %v\n", res.BatchTime)
	}
	if s.Batch == smartharvest.BatchFinite {
		fmt.Printf("finite batch progress: %v of %v core-time\n",
			res.BatchProgress, s.BatchWork)
	}
	fmt.Printf("agent: %d windows, %d resizes, %d short-term safeguards, %d QoS trips\n",
		res.Windows, res.Resizes, res.Safeguards, res.QoSTrips)
	fmt.Printf("reassignment: grow P99 %s, shrink P99 %s\n",
		fmtNS(res.Grow.P99), fmtNS(res.Shrink.P99))
	// What the simulator itself did, warm-up included: the denominators
	// for a profile taken with -cpuprofile.
	fmt.Printf("simulator: %d events fired; %d polls fired, %d skipped by run-ahead\n",
		res.Events, res.Polls, res.PollsSkipped)
	for _, p := range res.Primaries {
		fmt.Printf("simulator: primary %-18s %d requests offered, %d completed\n", p.Name, p.Offered, p.Completed)
	}
	if s.Faults.Enabled() {
		fmt.Printf("faults: %d injected (%s); %d retries, %d aborted resizes, %d missed windows, %d stalls, %d crashes\n",
			res.FaultsInjected, s.Faults, res.ResizeRetries, res.ResizesAborted,
			res.MissedWindows, res.Stalls, res.Crashes)
		fmt.Printf("degradation: %d entries; degraded at end of run: %v\n",
			res.Degradations, res.Degraded)
	}
	if res.Check != nil {
		fmt.Print(res.Check)
		if !res.Check.OK() {
			os.Exit(1)
		}
	}
}
