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
	"strconv"
	"strings"
	"time"

	"smartharvest"
	"smartharvest/internal/profile"
	"smartharvest/internal/sim"
)

// primaryList collects repeated -primary flags.
type primaryList []string

func (p *primaryList) String() string { return strings.Join(*p, ",") }
func (p *primaryList) Set(v string) error {
	*p = append(*p, v)
	return nil
}

func parsePrimary(spec string) (smartharvest.PrimarySpec, error) {
	name, arg, _ := strings.Cut(spec, ":")
	qps := 0.0
	if arg != "" {
		v, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return smartharvest.PrimarySpec{}, fmt.Errorf("bad load %q: %v", arg, err)
		}
		qps = v
	}
	switch name {
	case "memcached":
		if qps == 0 {
			qps = 40000
		}
		return smartharvest.Memcached(qps), nil
	case "memcached-swing":
		if qps == 0 {
			qps = 60000
		}
		return smartharvest.MemcachedSwinging(qps), nil
	case "indexserve":
		if qps == 0 {
			qps = 500
		}
		return smartharvest.IndexServe(qps), nil
	case "moses":
		if qps == 0 {
			qps = 400
		}
		return smartharvest.Moses(qps), nil
	case "img-dnn":
		if qps == 0 {
			qps = 2000
		}
		return smartharvest.ImgDNN(qps), nil
	case "squarewave":
		return smartharvest.SquareWave(8, 1, 500*smartharvest.Millisecond), nil
	default:
		return smartharvest.PrimarySpec{}, fmt.Errorf("unknown primary %q", name)
	}
}

func parsePolicy(spec, predictor string) (smartharvest.ControllerFactory, error) {
	name, arg, _ := strings.Cut(spec, ":")
	if predictor != "" && name != "smartharvest" {
		return nil, fmt.Errorf("-predictor only applies to -policy smartharvest (got %q)", name)
	}
	n := 0
	if arg != "" {
		v, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("bad policy argument %q: %v", arg, err)
		}
		n = v
	}
	switch name {
	case "smartharvest":
		kind := smartharvest.PredictorCSOAA
		if predictor != "" {
			k, err := smartharvest.ParsePredictor(predictor)
			if err != nil {
				return nil, err
			}
			kind = k
		}
		return smartharvest.NewSmartHarvestPredictor(kind, smartharvest.SmartHarvestOptions{}), nil
	case "fixedbuffer":
		if n == 0 {
			n = 4
		}
		return smartharvest.NewFixedBuffer(n), nil
	case "prevpeak":
		if n == 0 {
			n = 1
		}
		return smartharvest.NewPrevPeak(n, n > 1), nil
	case "ewma":
		return smartharvest.NewEWMA(0.3, 1), nil
	case "noharvest":
		return smartharvest.NewNoHarvest(), nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

func fmtNS(ns int64) string { return sim.Time(ns).String() }

func main() {
	var primaries primaryList
	flag.Var(&primaries, "primary", "primary workload as name[:qps]; repeatable (default memcached:40000)")
	policy := flag.String("policy", "smartharvest", "harvesting policy: smartharvest, fixedbuffer[:k], prevpeak[:n], ewma, noharvest")
	predictor := flag.String("predictor", "", fmt.Sprintf("peak predictor for -policy smartharvest: %s (default csoaa)",
		strings.Join(smartharvest.PredictorNames(), ", ")))
	batch := flag.String("batch", "cpubully", "ElasticVM workload: cpubully, hdinsight, terasort, finite, none")
	batchWork := flag.Duration("batch-work", 8*time.Second, "finite batch allotment in core-time (-batch finite)")
	batchWidth := flag.Int("batch-width", 0, "finite batch parallelism cap in cores, 0 = all (-batch finite)")
	mechanism := flag.String("mechanism", "cpugroups", "core reassignment mechanism: cpugroups or ipis")
	duration := flag.Duration("duration", 30*time.Second, "measured simulated time")
	warmup := flag.Duration("warmup", 2*time.Second, "simulated warmup")
	seed := flag.Uint64("seed", 1, "RNG seed")
	guard := flag.Bool("long-term-safeguard", true, "enable the long-term QoS safeguard")
	speedup := flag.Bool("speedup", false, "also run a NoHarvest baseline and report the batch speedup")
	faultSpec := flag.String("faults", "", "fault-injection plan as key=value pairs, e.g. hfail=0.05,drop=0.01,stall=0.001,stalldur=60ms (keys: hfail, hdelay, drop, stale, noise, stall, crash, hdelaymean, hdelayp99, stalldur, restartdur, losemodel; fleet keys scrash, gdrop, gdelay, rstale, rloss need a multi-server fleet and are rejected here)")
	poolSpec := flag.String("pools", "", "harvested-capacity pool plan, e.g. 'overcommit=1.5;name=acme,tier=standard,reserved=4' (pools need a multi-server fleet and are rejected here; use cmd/experiments -pools)")
	trace := flag.String("trace", "", "write a JSONL event trace of the run to this file (poll samples included)")
	checkRun := flag.Bool("check", false, "verify the run against the safety invariants and print the report (exit 1 on violation)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (allocations included) to this file after the run")
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "smartharvest: %v\n", err)
		os.Exit(1)
	}

	if len(primaries) == 0 {
		primaries = primaryList{"memcached:40000"}
	}
	var specs []smartharvest.PrimarySpec
	for _, p := range primaries {
		spec, err := parsePrimary(p)
		if err != nil {
			fail(err)
		}
		specs = append(specs, spec)
	}
	ctrl, err := parsePolicy(*policy, *predictor)
	if err != nil {
		fail(err)
	}
	batchKind, err := smartharvest.ParseBatchKind(*batch)
	if err != nil {
		fail(err)
	}
	mech, err := smartharvest.ParseMechanism(*mechanism)
	if err != nil {
		fail(err)
	}
	plan, err := smartharvest.ParseFaultPlan(*faultSpec)
	if err != nil {
		fail(err)
	}
	pools, err := smartharvest.ParsePools(*poolSpec)
	if err != nil {
		fail(err)
	}

	s := smartharvest.Scenario{
		Name:              "cli",
		Primaries:         specs,
		Batch:             batchKind,
		BatchWork:         sim.Duration(*batchWork),
		BatchWidth:        *batchWidth,
		Mechanism:         mech,
		Controller:        ctrl,
		Duration:          sim.Duration(*duration),
		Warmup:            sim.Duration(*warmup),
		Seed:              *seed,
		LongTermSafeguard: *guard,
		Faults:            plan,
		Pools:             pools,
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
		// With -speedup, only the harvesting run is verified: the baseline
		// scenario drops the checker (one checker verifies one run).
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
	if batchKind == smartharvest.BatchFinite {
		fmt.Printf("finite batch progress: %v of %v core-time\n",
			res.BatchProgress, sim.Duration(*batchWork))
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
	if plan.Enabled() {
		fmt.Printf("faults: %d injected (%s); %d retries, %d aborted resizes, %d missed windows, %d stalls, %d crashes\n",
			res.FaultsInjected, plan, res.ResizeRetries, res.ResizesAborted,
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
