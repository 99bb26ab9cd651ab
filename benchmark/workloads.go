package main

import (
	"fmt"
	"strconv"
	"strings"

	"smartharvest/internal/apps"
	"smartharvest/internal/check"
	"smartharvest/internal/cluster"
	"smartharvest/internal/core"
	"smartharvest/internal/faults"
	"smartharvest/internal/harness"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/market"
	"smartharvest/internal/obs"
	"smartharvest/internal/sched"
	"smartharvest/internal/sim"
	"smartharvest/internal/workload"
)

// scale fixes the simulated length of every scenario. Durations are part of
// the benchmark's definition: the simulated metrics and sim_digest depend on
// them, so --seconds only decides how many repeats of the fixed scenario list
// are timed. smoke exists for the tests.
type scale struct {
	name                   string
	poll, request, observe sim.Time // measured time per single-server scenario
	observeFull            sim.Time // ... of observed-chaos's full-trace scenario
	fleet                  sim.Time // measured time per fleet run
	warmup                 sim.Time // precedes every measured time
	probeDivisor           int      // divides the probes' operation counts
}

var (
	fullScale = scale{
		name: "full",
		poll: 120 * sim.Second, request: 6 * sim.Second, observe: 96 * sim.Second, observeFull: 30 * sim.Second,
		fleet: 3 * sim.Second, warmup: 2 * sim.Second, probeDivisor: 1,
	}
	smokeScale = scale{
		name: "smoke",
		poll: sim.Second, request: sim.Second, observe: sim.Second, observeFull: sim.Second,
		fleet: 500 * sim.Millisecond, warmup: 500 * sim.Millisecond, probeDivisor: 50,
	}
)

// op is one operation of a workload: one scenario run. The closed-loop client
// runs a repeat's ops one after the other.
type op struct {
	name string
	// pair selects the seed (seed+pair): a harvesting scenario and its
	// no-harvest baseline share a pair so their primaries see the same
	// arrivals.
	pair uint64
	// baseline is the index of the op whose P99s this op's are divided by,
	// or -1 for a baseline itself.
	baseline int
	run      func(seed uint64, tr *tracer) (opResult, error)
	// reference, when set, is run after the op on a traced pass only,
	// outside the op's timing: the layer below the op on the same input.
	reference func(seed uint64, tr *tracer, c *counts) error
}

// opResult is what one scenario run yields: the simulated statistics the
// end-to-end metrics are made of, their canonical form, and, on a traced
// run, the layer counts.
type opResult struct {
	simS       float64 // simulated server-seconds, warm-up included
	harvested  float64 // average harvested cores (per server on the fleet)
	batchCoreS float64 // batch core-seconds per measured simulated second
	p99        []int64 // per primary (one merged tenant P99 on the fleet)
	canon      string  // every simulated field, for sim_digest
	counts     counts
}

type workloadDef struct {
	name string
	why  string
	ops  func(sc scale) []op
	// noSink and noChecker, when set, are ops without the workload's sinks
	// and without its checker; the traced run times them for
	// obs.overhead_frac and check.overhead_frac.
	noSink, noChecker func(sc scale) []op
}

// workloads is the registry BENCHMARK.json's workload list must equal.
var workloads = []workloadDef{
	{
		name: "single-poll-bound",
		why:  "ms-scale primaries at <=2k req/s against 20k polls/s: the 50us agent poll (sim+core) is nearly every event",
		ops:  pollBoundOps,
	},
	{
		name: "single-request-bound",
		why:  "memcached-class primaries at 20-120k req/s a machine: dispatch/finish events in hypervisor/apps/metrics outnumber polls 3:1",
		ops:  requestBoundOps,
	},
	{
		name:      "observed-chaos",
		why:       "JSONL+Metrics sinks, live checker and the x1 agent fault plan: the observer, checker and retry/degrade paths run",
		ops:       func(sc scale) []op { return observedOps(sc, observeAll) },
		noSink:    func(sc scale) []op { return observedOps(sc, observeNoSink) },
		noChecker: func(sc scale) []op { return observedOps(sc, observeNoChecker) },
	},
	{
		name: "fleet-market-chaos",
		why:  "six short sched runs on a full 8-server fleet with pools and fleet faults: eight agents on one deep event heap, cluster, sched and market",
		ops:  fleetOps,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// singleScenario follows internal/experiments: explicit SmartHarvest
// controller, CPUBully batch, and the long-term safeguard only when every
// primary is memcached-class. Leaving Controller nil would force that
// safeguard on, and ms-scale primaries would then sit in its 10 s lock-out
// harvesting ~0.1 cores, i.e. the agent under test would do no work.
func singleScenario(name string, sc scale, dur sim.Time, ctrl harness.ControllerFactory, prims ...apps.PrimarySpec) harness.Scenario {
	subMs := true
	for _, p := range prims {
		subMs = subMs && strings.HasPrefix(p.Name, "memcached")
	}
	return harness.Scenario{
		Name:              name,
		Primaries:         prims,
		Batch:             harness.BatchCPUBully,
		Controller:        ctrl,
		Duration:          dur,
		Warmup:            sc.warmup,
		LongTermSafeguard: subMs,
	}
}

type prepareFunc func(*harness.Scenario) func(*counts) error

func smartHarvest() harness.ControllerFactory {
	return harness.SmartHarvestFactory(core.SmartHarvestOptions{})
}

// singleOps turns harvesting scenarios into ops, each followed by the
// no-harvest baseline of its pair unless an earlier scenario of the same
// pair already brought one. prepare, when set, attaches the workload's
// observers to every scenario just before it runs and returns what reads
// them out afterwards.
func singleOps(scens []harness.Scenario, pairs []uint64, prepare prepareFunc) []op {
	var ops []op
	baseOf := map[uint64]int{}
	add := func(s harness.Scenario, pair uint64, baseline int) {
		ops = append(ops, op{name: s.Name, pair: pair, baseline: baseline,
			run: func(seed uint64, tr *tracer) (opResult, error) {
				return runSingle(s, seed, tr, prepare)
			}})
	}
	for i, s := range scens {
		pair := pairs[i]
		if _, ok := baseOf[pair]; !ok {
			baseOf[pair] = len(ops) + 1
			add(s, pair, baseOf[pair])
			base := harness.BaselineScenario(s)
			add(base, pair, -1)
			continue
		}
		add(s, pair, baseOf[pair])
	}
	return ops
}

func pollBoundOps(sc scale) []op {
	sh := smartHarvest()
	ensemble := harness.SmartHarvestPredictorFactory(harness.PredictorEnsemble, core.SmartHarvestOptions{})
	return singleOps([]harness.Scenario{
		singleScenario("indexserve", sc, sc.poll, sh, apps.IndexServe(500)),
		singleScenario("moses", sc, sc.poll, sh, apps.Moses(400)),
		singleScenario("imgdnn", sc, sc.poll, sh, apps.ImgDNN(2000)),
		singleScenario("indexserve+moses", sc, sc.poll, sh, apps.IndexServe(500), apps.Moses(400)),
		// Same seed as the first scenario: one baseline serves both predictors.
		singleScenario("indexserve-ensemble", sc, sc.poll, ensemble, apps.IndexServe(500)),
	}, []uint64{0, 1, 2, 3, 0}, nil)
}

func requestBoundOps(sc scale) []op {
	sh := smartHarvest()
	// Four periodic-class VMs, the predictors experiment's shape. (Its bursty
	// class costs 0.9-1.7 s of host time per run depending on how the seed
	// stacks the bursts, which no number of repeats averages out.) The shared
	// burst schedule is derived from a constant, as there, so --seed moves
	// the scenario RNG streams only.
	mix := apps.CharacterizedMix(0xC11A55AB1E, 4, workload.ClassPeriodic, 30000)
	return singleOps([]harness.Scenario{
		singleScenario("memcached", sc, sc.request, sh, apps.Memcached(40000)),
		singleScenario("memcached-swing", sc, sc.request, sh, apps.MemcachedSwinging(20000)),
		singleScenario("memcached-x2", sc, sc.request, sh, apps.Memcached(40000), apps.Memcached(20000)),
		singleScenario("periodic-mix-x4", sc, sc.request, sh, mix...),
	}, []uint64{0, 1, 2, 3}, nil)
}

// chaosPlan is the chaos experiment's x1 agent fault plan.
var chaosPlan = faults.Plan{
	HypercallFailProb:  0.05,
	HypercallDelayProb: 0.05,
	PollDropProb:       0.001,
	PollStaleProb:      0.002,
	PollNoiseProb:      0.01,
	StallProb:          0.005,
	CrashProb:          0.001,
}

// countingWriter stands in for the trace file: the JSONL sink does all its
// encoding and buffering, and no disk is timed.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// observeVariant drops one part of observed-chaos's instrumentation, for the
// traced run's obs.overhead_frac and check.overhead_frac reruns.
type observeVariant int

const (
	observeAll observeVariant = iota
	observeNoSink
	observeNoChecker
)

func observedOps(sc scale, variant observeVariant) []op {
	sh := smartHarvest()
	scens := []harness.Scenario{
		singleScenario("memcached-fulltrace", sc, sc.observeFull, sh, apps.Memcached(40000)),
		singleScenario("indexserve", sc, sc.observe, sh, apps.IndexServe(500)),
		singleScenario("moses+imgdnn", sc, sc.observe, sh, apps.Moses(400), apps.ImgDNN(2000)),
	}
	for i := range scens {
		scens[i].Faults = chaosPlan
	}
	// Baselines keep the fault plan (the injector's seed is drawn from the
	// scenario stream, so dropping it would shift the primaries' arrivals)
	// and the sinks, so that the whole workload runs observed.
	prepare := func(s *harness.Scenario) func(*counts) error {
		var sink *obs.JSONL
		var w countingWriter
		if variant != observeNoSink {
			var opts []obs.JSONLOption
			if !strings.HasPrefix(s.Name, "memcached-fulltrace") {
				opts = append(opts, obs.JSONLOmitPolls())
			}
			sink = obs.NewJSONL(&w, opts...)
			s.Observer = obs.Multi(s.Observer, sink, obs.NewMetrics())
		}
		if variant != observeNoChecker {
			s.Checker = check.New()
		}
		return func(c *counts) error {
			if sink == nil {
				return nil
			}
			if err := sink.Flush(); err != nil {
				return fmt.Errorf("jsonl sink: %w", err)
			}
			if w.n == 0 {
				return fmt.Errorf("jsonl sink wrote nothing")
			}
			c[cJSONLBytes] = float64(w.n)
			return nil
		}
	}
	return singleOps(scens, []uint64{0, 1, 2}, prepare)
}

func runSingle(s harness.Scenario, seed uint64, tr *tracer, prepare prepareFunc) (opResult, error) {
	s.Seed = seed
	finish := func(*counts) error { return nil }
	if prepare != nil {
		finish = prepare(&s)
	}
	var tc *controllerTimer
	if tr != nil {
		tc = new(controllerTimer)
		s.Controller = tc.wrap(s.Controller)
	}
	res, err := harness.Run(s)
	if err != nil {
		return opResult{}, err
	}
	out := opResult{
		simS:       (s.Warmup + s.Duration).Seconds(),
		harvested:  res.AvgHarvestedCores,
		batchCoreS: res.ElasticCPUSeconds / s.Duration.Seconds(),
		canon:      canonSingle(res),
	}
	if err := finish(&out.counts); err != nil {
		return out, err
	}
	for _, p := range res.Primaries {
		out.p99 = append(out.p99, p.Latency.P99)
		if p.Offered < p.Completed {
			return out, fmt.Errorf("%s completed %d of %d offered", p.Name, p.Completed, p.Offered)
		}
	}
	out.counts.addSingle(res)
	if tc != nil {
		out.counts.addController(tc)
	}
	if res.Check != nil {
		return out, res.Check.Err()
	}
	return out, nil
}

// balancedPools is the market experiment's balanced three-tier mix with the
// reservations doubled for eight servers instead of four.
const balancedPools = "name=s1,tier=spot,reserved=40,price=0.5;name=m1,tier=standard,reserved=40;name=p1,tier=premium,reserved=48,price=2"

// fleetChaosPlan is the fleetchaos experiment's x1 fleet fault plan.
var fleetChaosPlan = faults.Plan{
	ServerCrashProb:   0.002,
	GrantDropProb:     0.2,
	GrantDelayProb:    0.1,
	ReadStaleProb:     0.1,
	ReconcileLossProb: 0.05,
}

const fleetServers = 8

// fleetConfig is a full fleet. Tenants arrive at 20/s against sixteen slots
// and live 20 s on average, so the fleet fills within the warm-up and every
// departure (about four a run) is replaced at once; Poisson occupancy, which
// would move every metric by tens of percent from seed to seed, is gone.
// Tenants are memcached-class, the only kind the always-on long-term
// safeguard of internal/cluster is calibrated for, and cores move by IPI:
// with cpugroups' reassignment latency a tenant arriving on a harvested
// server trips that safeguard, and a 10 s lock-out outlasts the run.
func fleetConfig(sc scale, seed uint64, plan faults.Plan) cluster.Config {
	return cluster.Config{
		Servers:      fleetServers,
		Mechanism:    hypervisor.IPI,
		ArrivalRate:  20,
		MeanLifetime: 20 * sim.Second,
		Workloads:    []apps.PrimarySpec{apps.Memcached(8000)},
		Duration:     sc.fleet,
		Warmup:       sc.warmup,
		Seed:         seed,
		Faults:       plan,
	}
}

// fleetJobs are small enough to finish well inside a 3 s run, and arrive at
// 120/s, about a third more core-time than the fleet harvests: goodput is
// then set by the harvest and the placement policy, not by how many jobs the
// seed happened to draw.
var fleetJobs = []sched.JobSpec{
	{Work: 250 * sim.Millisecond, Width: 2, Deadline: 500 * sim.Millisecond},
	{Work: 500 * sim.Millisecond, Width: 4, Deadline: sim.Second},
	{Work: sim.Second, Width: 4},
}

// fleetOps is the sweep shape: six short runs differing in policy, pool plan
// and fault plan, each on a seed of its own so that the Poisson job count
// (the same for all six on a shared seed) averages out, and one no-harvest
// run of the first one's fleet as P99 reference. The tenants are one class,
// so the reference's P99 is that class's; the runs on other seeds are
// compared with it to within a histogram bucket, about half a percent.
func fleetOps(sc scale) []op {
	pools, err := market.ParsePools(balancedPools)
	if err != nil {
		panic(err) // constant plan
	}
	type variant struct {
		pol    sched.Policy
		market market.Config
		plan   faults.Plan
	}
	variants := []variant{
		{sched.FirstFit, market.Config{}, faults.Plan{}},
		{sched.BestFit, market.Config{}, faults.Plan{}},
		{sched.Predicted, pools, faults.Plan{}},
		{sched.FirstFit, pools, faults.Plan{}},
		{sched.BestFit, pools, fleetChaosPlan},
		{sched.Predicted, pools, fleetChaosPlan},
	}
	const baseline = 6
	var ops []op
	for i, v := range variants {
		v := v
		name := fmt.Sprintf("%d-%s", i+1, v.pol)
		if v.market.Enabled() {
			name += "+pools"
		}
		if v.plan.Enabled() {
			name += "+chaos"
		}
		ops = append(ops, op{name: name, pair: uint64(i), baseline: baseline,
			run: func(seed uint64, tr *tracer) (opResult, error) {
				return runFleet(sched.Config{
					Fleet:       fleetConfig(sc, seed, v.plan),
					Policy:      v.pol,
					ArrivalRate: 240,
					Jobs:        fleetJobs,
					Market:      v.market,
					Checker:     check.NewJobChecker(),
				}, tr)
			},
			reference: func(seed uint64, tr *tracer, c *counts) error {
				return tr.clusterReference(fleetConfig(sc, seed, v.plan), name, c)
			}})
	}
	ops = append(ops, op{name: "noharvest", baseline: -1,
		run: func(seed uint64, tr *tracer) (opResult, error) {
			cfg := fleetConfig(sc, seed, faults.Plan{})
			cfg.Controller = harness.NoHarvestFactory()
			cfg.DisableElasticBully = true
			res, err := cluster.Run(cfg)
			if err != nil {
				return opResult{}, err
			}
			return opResult{
				simS:  fleetServers * (cfg.Warmup + cfg.Duration).Seconds(),
				p99:   []int64{res.TenantLatency.P99},
				canon: canonFleet(res),
			}, nil
		}})
	return ops
}

func runFleet(cfg sched.Config, tr *tracer) (opResult, error) {
	var tc *controllerTimer
	if tr != nil {
		tc = new(controllerTimer)
		cfg.Fleet.Controller = tc.wrap(smartHarvest())
	}
	res, err := sched.Run(cfg)
	if err != nil {
		return opResult{}, err
	}
	measured := cfg.Fleet.Duration.Seconds()
	out := opResult{
		simS:       fleetServers * (cfg.Fleet.Warmup + cfg.Fleet.Duration).Seconds(),
		harvested:  res.Fleet.FleetAvgHarvested,
		batchCoreS: res.GoodputCoreSec / (fleetServers * measured),
		p99:        []int64{res.Fleet.TenantLatency.P99},
		canon:      canonSched(res),
	}
	if res.Submitted != res.Completed+res.Abandoned+res.Unfinished {
		return out, fmt.Errorf("submitted %d != completed %d + abandoned %d + unfinished %d",
			res.Submitted, res.Completed, res.Abandoned, res.Unfinished)
	}
	out.counts.addFleet(res)
	if tc != nil {
		out.counts.addController(tc)
	}
	return out, res.Check.Err()
}

// canon writes simulated fields in a fixed order, floats in their shortest
// round-trip form, so that equal strings mean bit-identical statistics.
type canon struct{ b strings.Builder }

func (c *canon) add(fields ...any) {
	for _, v := range fields {
		if f, ok := v.(float64); ok {
			c.b.WriteString(strconv.FormatFloat(f, 'g', -1, 64))
		} else {
			fmt.Fprint(&c.b, v)
		}
		c.b.WriteByte(' ')
	}
}

func canonSingle(r *harness.Result) string {
	var c canon
	c.add(r.Scenario, r.Policy, r.BatchFinished, r.Degraded)
	for _, p := range r.Primaries {
		l := p.Latency
		c.add(p.Name, p.Offered, p.Completed, l.Count, l.Mean, l.Stddev,
			l.Min, l.P50, l.P95, l.P99, l.P999, l.Max)
	}
	c.add(r.AvgHarvestedCores, r.AvgElasticCores, r.ElasticCPUSeconds,
		r.Windows, r.Safeguards, r.QoSTrips, r.Resizes, r.FaultsInjected,
		r.ResizeRetries, r.ResizeFailures, r.ResizesAborted, r.MissedPolls,
		r.MissedWindows, r.Stalls, r.Crashes, r.Degradations,
		r.Grow.Count, r.Shrink.Count, r.Grow.P99, r.Shrink.P99)
	return c.b.String()
}

func (c *canon) addFleet(r *cluster.Result) {
	t := r.TenantLatency
	c.add(r.Placed, r.Rejected, r.Retries, r.Departed,
		r.FleetAvgHarvested, r.HarvestedCoreSec, r.ElasticCPUSec,
		r.FaultsInjected, t.Count, t.Mean, t.P50, t.P99, t.Max)
	for _, s := range r.PerServer {
		c.add(s.TenantsHosted, s.HarvestedCoreSec, s.ElasticCPUSeconds, s.Safeguards, s.QoSTrips)
	}
}

func canonFleet(r *cluster.Result) string {
	var c canon
	c.addFleet(r)
	return c.b.String()
}

func canonSched(r *sched.Result) string {
	var c canon
	// The completion quantiles are sim.Time, which prints rounded.
	c.add(r.Policy, r.Submitted, r.Completed, r.Abandoned, r.Unfinished,
		r.Evictions, r.Requeues, r.Crashes, r.Orphaned, r.PlacementRetries,
		r.Quarantines, r.Degraded, r.SLOJobs, r.SLOMet,
		int64(r.CompletionP50), int64(r.CompletionP99), r.GoodputCoreSec)
	if m := r.Market; m != nil {
		c.add(m.Admitted, m.Rejected, m.Revenue, m.Penalties, m.RevenueGoodput)
	}
	c.addFleet(r.Fleet)
	return c.b.String()
}
