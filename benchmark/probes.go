package main

import (
	"fmt"
	"runtime"
	"time"

	"smartharvest/internal/apps"
	"smartharvest/internal/check"
	"smartharvest/internal/core"
	"smartharvest/internal/harness"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/learner"
	"smartharvest/internal/market"
	"smartharvest/internal/metrics"
	"smartharvest/internal/obs"
	"smartharvest/internal/sched"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
	"smartharvest/internal/traces"
	"smartharvest/internal/workload"
)

// A probe drives one package's public API with workload-shaped input and
// nothing else, to give the unit costs the ledger multiplies the traced
// run's counts by. setup builds the state once per round and returns the
// timed body, which does n operations.
type probe struct {
	n     int
	setup func() (body func(n int) error, err error)
}

// cost is one probe's result per operation: medians over the rounds.
type cost struct{ ns, allocs, bytes float64 }

const probeRounds = 5

func (p probe) run() (cost, error) {
	var ns, allocs, bytes []float64
	for r := 0; r < probeRounds; r++ {
		body, err := p.setup()
		if err != nil {
			return cost{}, err
		}
		// The first call fills caches, free lists and buffers.
		if err := body(p.n/8 + 1); err != nil {
			return cost{}, err
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err = body(p.n)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return cost{}, err
		}
		ns = append(ns, float64(elapsed)/float64(p.n))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(p.n))
		bytes = append(bytes, float64(after.TotalAlloc-before.TotalAlloc)/float64(p.n))
	}
	return cost{median(ns), median(allocs), median(bytes)}, nil
}

// stubHV is the agent probe's hypervisor: a busy-core reading that wanders
// like a lightly loaded primary's, resizes that always apply, no waits.
type stubHV struct{ x uint64 }

func (h *stubHV) TotalCores() int { return 11 }
func (h *stubHV) BusyPrimaryCores() int {
	h.x = h.x*6364136223846793005 + 1442695040888963407
	return int(h.x>>61) & 3 // 0..3 busy cores
}
func (h *stubHV) SetPrimaryCores(int) (core.ResizeResult, error) {
	return core.ResizeResult{Applied: true, Latency: 200 * sim.Microsecond}, nil
}
func (h *stubHV) DrainPrimaryWaits() []int64 { return nil }

// replay hands one recorded event to an observer.
func replay(o obs.Observer, r *obs.Record) {
	switch r.Kind {
	case obs.KindPollSample:
		o.OnPollSample(r.PollSample)
	case obs.KindWindowEnd:
		o.OnWindowEnd(r.WindowEnd)
	case obs.KindSafeguardTrip:
		o.OnSafeguardTrip(r.SafeguardTrip)
	case obs.KindQoSTrip:
		o.OnQoSTrip(r.QoSTrip)
	case obs.KindQoSResume:
		o.OnQoSResume(r.QoSResume)
	case obs.KindResize:
		o.OnResize(r.Resize)
	case obs.KindChurnApplied:
		o.OnChurnApplied(r.ChurnApplied)
	case obs.KindBatchProgress:
		o.OnBatchProgress(r.BatchProgress)
	case obs.KindFaultInjected:
		o.OnFaultInjected(r.FaultInjected)
	case obs.KindResizeRetry:
		o.OnResizeRetry(r.ResizeRetry)
	case obs.KindDegradedEnter:
		o.OnDegradedEnter(r.DegradedEnter)
	case obs.KindDegradedExit:
		o.OnDegradedExit(r.DegradedExit)
	case obs.KindJobSubmit:
		o.OnJobSubmit(r.JobSubmit)
	case obs.KindJobStart:
		o.OnJobStart(r.JobStart)
	case obs.KindJobEvict:
		o.OnJobEvict(r.JobEvict)
	case obs.KindJobRequeue:
		o.OnJobRequeue(r.JobRequeue)
	case obs.KindJobComplete:
		o.OnJobComplete(r.JobComplete)
	case obs.KindJobSLOMiss:
		o.OnJobSLOMiss(r.JobSLOMiss)
	case obs.KindPredictorInfo:
		o.OnPredictorInfo(r.PredictorInfo)
	case obs.KindServerCrash:
		o.OnServerCrash(r.ServerCrash)
	case obs.KindServerRestart:
		o.OnServerRestart(r.ServerRestart)
	case obs.KindServerQuarantine:
		o.OnServerQuarantine(r.ServerQuarantine)
	case obs.KindServerProbation:
		o.OnServerProbation(r.ServerProbation)
	case obs.KindPlacementRetry:
		o.OnPlacementRetry(r.PlacementRetry)
	case obs.KindAdmissionDegraded:
		o.OnAdmissionDegraded(r.AdmissionDegraded)
	case obs.KindPoolOpen:
		o.OnPoolOpen(r.PoolOpen)
	case obs.KindPoolReject:
		o.OnPoolReject(r.PoolReject)
	case obs.KindPoolGrant:
		o.OnPoolGrant(r.PoolGrant)
	case obs.KindPoolAccount:
		o.OnPoolAccount(r.PoolAccount)
	case obs.KindPoolEvict:
		o.OnPoolEvict(r.PoolEvict)
	case obs.KindPoolSettle:
		o.OnPoolSettle(r.PoolSettle)
	}
}

// agentStream records the event stream of observed-chaos's full-trace
// scenario, shortened to what the ring holds, with the checker
// configuration harness.Run bound for it.
func agentStream() ([]obs.Record, check.Config, error) {
	const capacity = 1 << 13
	ring := obs.NewRing(capacity)
	s := singleScenario("probe", smokeScale, 300*sim.Millisecond, smartHarvest(), apps.Memcached(40000))
	s.Warmup = 50 * sim.Millisecond
	s.Faults = chaosPlan
	s.Observer = ring
	s.Seed = 1
	if _, err := harness.Run(s); err != nil {
		return nil, check.Config{}, err
	}
	if ring.TotalEvents() > capacity {
		return nil, check.Config{}, fmt.Errorf("agent stream of %d events overflowed the ring", ring.TotalEvents())
	}
	agent := core.DefaultConfig(10, 1)
	return ring.Records(), check.Config{
		TotalCores: 11, PrimaryAlloc: 10, PrimaryVMCores: 10, ElasticMin: 1,
		HarvestPause: agent.HarvestPause, QoSViolationFrac: agent.QoSViolationFrac,
		LongTermSafeguard: true,
		MaxRetries:        agent.Resilience.MaxRetries, RetryBackoff: agent.Resilience.RetryBackoff,
		Probation: agent.Resilience.Probation,
	}, nil
}

// jobStream records the fleet-level event stream of a smoke-scale
// fleet-market-chaos run with pools and fleet faults, with the checker
// configuration sched.Run bound for it (sched's defaults).
func jobStream() ([]obs.Record, check.JobConfig, error) {
	const capacity = 1 << 13
	ring := obs.NewRing(capacity)
	pools, err := market.ParsePools(balancedPools)
	if err != nil {
		return nil, check.JobConfig{}, err
	}
	fleet := fleetConfig(smokeScale, 1, fleetChaosPlan)
	fleet.Observer = ring
	if _, err := sched.Run(sched.Config{Fleet: fleet, Policy: sched.Predicted,
		ArrivalRate: 240, Jobs: fleetJobs, Market: pools}); err != nil {
		return nil, check.JobConfig{}, err
	}
	if ring.TotalEvents() > capacity {
		return nil, check.JobConfig{}, fmt.Errorf("job stream of %d events overflowed the ring", ring.TotalEvents())
	}
	return ring.Records(), check.JobConfig{
		MaxRequeues: 3, Servers: fleetServers,
		MaxPlacementRetries: 3, PlacementBackoff: 5 * sim.Millisecond,
		QuarantineDur: 250 * sim.Millisecond, QuarantineMax: 2 * sim.Second,
		ProbationDur: 500 * sim.Millisecond, DegradeEnter: 8, DegradeExit: 2,
		Market: pools,
	}, nil
}

// each makes a probe body of an operation that cannot fail. The closure call
// costs a nanosecond or two an operation, so the cheapest operations have
// loops of their own instead.
func each(op func(i int)) func(int) error {
	return func(n int) error {
		for i := 0; i < n; i++ {
			op(i)
		}
		return nil
	}
}

// replayProbe times an observer over a recorded stream, with a fresh observer
// for every pass over the stream so that stateful ones see a legal history.
// verify, when set, inspects each observer that saw the whole stream.
func replayProbe(stream []obs.Record, fresh func() (obs.Observer, error), verify func(obs.Observer) error) probe {
	// n is whatever run is told: whole passes over the stream are not needed.
	return probe{n: 8 * len(stream), setup: func() (func(int) error, error) {
		return func(n int) error {
			var o obs.Observer
			for i := 0; i < n; i++ {
				at := i % len(stream)
				if at == 0 {
					var err error
					if o, err = fresh(); err != nil {
						return err
					}
				}
				replay(o, &stream[at])
				if verify != nil && at == len(stream)-1 {
					if err := verify(o); err != nil {
						return err
					}
				}
			}
			return nil
		}, nil
	}}
}

// probeResults are the per-layer metrics the probes define, and what the
// JSONL sink writes per event of the recorded agent stream, by which the
// ledger charges a run's sink for its bytes.
type probeResults struct {
	metrics            map[string]sample
	jsonlBytesPerEvent float64
}

// runProbes measures every probe with its operation count divided by div.
func runProbes(div int) (probeResults, error) {
	var none probeResults
	agentEvents, checkCfg, err := agentStream()
	if err != nil {
		return none, fmt.Errorf("recording the agent stream: %w", err)
	}
	jobEvents, jobCfg, err := jobStream()
	if err != nil {
		return none, fmt.Errorf("recording the job stream: %w", err)
	}
	poolPlan, err := market.ParsePools(balancedPools)
	if err != nil {
		return none, err
	}
	window := make([]int, 500) // one 25 ms window of 50 us polls
	for i, rng := 0, simrng.New(1); i < len(window); i++ {
		window[i] = rng.Intn(11)
	}
	features := []float64{0.1, 0.7, 0.3, 0.1, 0.3}
	costs := learner.FillCosts(make([]float64, 11), learner.SkewedCost{UnderPenalty: 10}, 5)
	nop := func() {}
	scheduleFire := func(l *sim.Loop) func(int) error {
		return func(n int) error {
			for i := 0; i < n; i++ {
				l.After(sim.Microsecond, nop)
				l.Step()
			}
			return nil
		}
	}

	// Where two metrics come from one probe, part says which each is.
	type reading struct {
		name, unit string
		part       func(cost) float64
	}
	ns := func(c cost) float64 { return c.ns }
	allocs := func(c cost) float64 { return c.allocs }
	table := []struct {
		probe    probe
		readings []reading
	}{
		{probe{400000, func() (func(int) error, error) {
			return scheduleFire(sim.NewLoop()), nil
		}}, []reading{{"sim.schedule_fire_ns", "ns", ns}}},
		// Eight agents, their machines and a few hundred requests in flight
		// keep the fleet's shared heap thousands of events deep.
		{probe{200000, func() (func(int) error, error) {
			l := sim.NewLoop()
			for i := 0; i < 4096; i++ {
				l.After(sim.Second+sim.Time(i), nop)
			}
			return scheduleFire(l), nil
		}}, []reading{{"sim.schedule_fire_depth4k_ns", "ns", ns}}},
		{probe{400000, func() (func(int) error, error) {
			l := sim.NewLoop()
			return func(n int) error {
				for i := 0; i < n; i++ {
					l.Cancel(l.After(sim.Millisecond, nop))
				}
				return nil
			}, nil
		}}, []reading{{"sim.cancel_ns", "ns", ns}}},
		{probe{400000, func() (func(int) error, error) {
			l := sim.NewLoop()
			l.NewTicker(0, 50*sim.Microsecond, nop)
			return func(n int) error {
				l.RunUntil(l.Now() + sim.Time(n)*50*sim.Microsecond)
				return nil
			}, nil
		}}, []reading{{"sim.ticker_ns", "ns", ns}}},
		{probe{1000000, func() (func(int) error, error) {
			rng := simrng.New(1)
			return func(n int) error {
				for i := 0; i < n; i++ {
					sinkFloat += rng.Exp(25000)
				}
				return nil
			}, nil
		}}, []reading{{"simrng.draw_ns", "ns", ns}}},
		// An IndexServe tenant's trace has ~15000 arrivals; n counts arrivals.
		{probe{60000, func() (func(int) error, error) {
			cfg := traces.DefaultConfig(500, 30*sim.Second)
			return func(n int) error {
				for done := 0; done < n; {
					cfg.Seed++
					events, err := traces.Generate(cfg)
					if err != nil {
						return err
					}
					done += len(events)
				}
				return nil
			}, nil
		}}, []reading{
			{"traces.generate_ns_per_arrival", "ns", ns},
			{"traces.generate_allocs_per_arrival", "count", allocs},
		}},
		{probe{400000, func() (func(int) error, error) {
			knobs := workload.KnobsFor(workload.ClassPeriodic, 30000)
			arrival := workload.NewCharacterized(simrng.New(1), knobs,
				workload.NewBurstSchedule(1, knobs.BurstRate, 120*sim.Second))
			now := sim.Time(0)
			return func(n int) error {
				for i := 0; i < n; {
					gap, batch := arrival.Next(now)
					now += gap
					i += batch
				}
				return nil
			}, nil
		}}, []reading{{"workload.chargen_ns_per_arrival", "ns", ns}}},
		{probe{20000, func() (func(int) error, error) {
			fe := learner.NewFeatureExtractor(10)
			return each(func(int) { sinkFloat += fe.Compute(window).Avg }), nil
		}}, []reading{{"learner.features_ns", "ns", ns}}},
		{probe{400000, func() (func(int) error, error) {
			c := learner.NewCSOAA(11, learner.NumFeatures, 0.1)
			return func(n int) error {
				for i := 0; i < n; i++ {
					sinkFloat += float64(c.Predict(features))
				}
				return nil
			}, nil
		}}, []reading{{"learner.csoaa_predict_ns", "ns", ns}}},
		{probe{400000, func() (func(int) error, error) {
			c := learner.NewCSOAA(11, learner.NumFeatures, 0.1)
			return each(func(int) { c.Update(features, costs) }), nil
		}}, []reading{{"learner.csoaa_update_ns", "ns", ns}}},
		// What the ensemble does per window: every member predicts and trains.
		{probe{40000, func() (func(int) error, error) {
			e := learner.NewEnsemble(11)
			now := int64(0)
			return each(func(int) {
				now += int64(25 * sim.Millisecond)
				sinkFloat += float64(e.Predict(now, features))
				e.Update(now, features, 5, costs)
			}), nil
		}}, []reading{{"learner.ensemble_window_ns", "ns", ns}}},
		// The whole agent on a stub hypervisor: poll event, sample, safeguard
		// test, and every 500th poll the window end. n counts polls.
		{probe{400000, func() (func(int) error, error) {
			l := sim.NewLoop()
			cfg := core.DefaultConfig(10, 1)
			cfg.LongTermSafeguard = false
			agent, err := core.NewAgent(l, &stubHV{x: 1}, core.NewSmartHarvest(10, core.SmartHarvestOptions{}), cfg)
			if err != nil {
				return nil, err
			}
			agent.Start()
			return func(n int) error {
				l.RunUntil(l.Now() + sim.Time(n)*cfg.PollInterval)
				return nil
			}, nil
		}}, []reading{
			{"core.agent_ns_per_poll", "ns", ns},
			{"core.agent_bytes_per_poll", "B", func(c cost) float64 { return c.bytes }},
		}},
		// The controller's share of a window end: features, predict, update.
		{probe{20000, func() (func(int) error, error) {
			ctrl := core.NewSmartHarvest(10, core.SmartHarvestOptions{})
			w := core.Window{Samples: window, Peak: 10, Peak1s: 10, CurrentTarget: 10, Busy: 3}
			return each(func(int) {
				w.At += 25 * sim.Millisecond
				sinkFloat += float64(ctrl.OnWindowEnd(w))
			}), nil
		}}, []reading{{"core.agent_window_end_ns", "ns", ns}}},
		// One memcached primary at 40k req/s on a machine without an agent:
		// arrival, dispatch, service, completion and the latency histogram.
		{probe{200000, func() (func(int) error, error) {
			l := sim.NewLoop()
			m, err := hypervisor.New(l, hypervisor.DefaultConfig(11))
			if err != nil {
				return nil, err
			}
			m.SetInitialSplit(10)
			vm := m.AddVM("memcached", hypervisor.PrimaryGroup, 10, 10)
			srv, err := apps.Memcached(40000).Build(l, vm, simrng.New(1), 0)
			if err != nil {
				return nil, err
			}
			srv.Start()
			return func(n int) error {
				l.RunUntil(l.Now() + sim.Time(n)*sim.Second/40000)
				return nil
			}, nil
		}}, []reading{
			{"hypervisor.ns_per_request", "ns", ns},
			{"hypervisor.allocs_per_request", "count", allocs},
		}},
		// The busy-core read every poll makes, on a two-tenant server.
		{probe{1000000, func() (func(int) error, error) {
			m, err := hypervisor.New(sim.NewLoop(), hypervisor.DefaultConfig(21))
			if err != nil {
				return nil, err
			}
			m.SetInitialSplit(20)
			return func(n int) error {
				for i := 0; i < n; i++ {
					sinkFloat += float64(m.BusyCores(hypervisor.PrimaryGroup))
				}
				return nil
			}, nil
		}}, []reading{{"hypervisor.busy_cores_ns", "ns", ns}}},
		// A resize by two cores and the events that carry it out.
		{probe{20000, func() (func(int) error, error) {
			l := sim.NewLoop()
			m, err := hypervisor.New(l, hypervisor.DefaultConfig(11))
			if err != nil {
				return nil, err
			}
			m.SetInitialSplit(10)
			m.AddVM("primary", hypervisor.PrimaryGroup, 10, 10)
			m.AddVM("elastic", hypervisor.ElasticGroup, 11, 11)
			return func(n int) error {
				for i := 0; i < n; i++ {
					if _, err := m.SetPrimaryCores(6 + 2*(i%2)); err != nil {
						return err
					}
					l.RunUntil(l.Now() + 25*sim.Millisecond)
				}
				return nil
			}, nil
		}}, []reading{{"hypervisor.resize_ns", "ns", ns}}},
		{probe{1000000, func() (func(int) error, error) {
			h, rng := metrics.NewHistogram(), simrng.New(1)
			return func(n int) error {
				for i := 0; i < n; i++ {
					h.Record(int64(rng.Uint64() >> 44)) // up to ~1 ms in ns
				}
				return nil
			}, nil
		}}, []reading{{"metrics.histogram_record_ns", "ns", ns}}},
		{probe{20000, func() (func(int) error, error) {
			h, rng := metrics.NewHistogram(), simrng.New(1)
			for i := 0; i < 100000; i++ {
				h.Record(int64(rng.Uint64() >> 44))
			}
			return each(func(int) { sinkFloat += float64(h.P99()) }), nil
		}}, []reading{{"metrics.histogram_quantile_ns", "ns", ns}}},
		{replayProbe(agentEvents, func() (obs.Observer, error) { return obs.NopObserver{}, nil }, nil),
			[]reading{{"obs.nop_ns_per_event", "ns", ns}}},
		{replayProbe(agentEvents, func() (obs.Observer, error) { return obs.NewRing(4096), nil }, nil),
			[]reading{{"obs.ring_ns_per_event", "ns", ns}}},
		{replayProbe(agentEvents, func() (obs.Observer, error) { return obs.NewMetrics(), nil }, nil),
			[]reading{{"obs.metrics_ns_per_event", "ns", ns}}},
		{replayProbe(agentEvents, func() (obs.Observer, error) { return obs.NewJSONL(&countingWriter{}), nil },
			func(o obs.Observer) error { return o.(*obs.JSONL).Flush() }),
			[]reading{{"obs.jsonl_ns_per_event", "ns", ns}}},
		{replayProbe(agentEvents, func() (obs.Observer, error) {
			c := check.New()
			return c, c.Bind(checkCfg)
		}, func(o obs.Observer) error { return o.(*check.Checker).Finish().Err() }),
			[]reading{{"check.checker_ns_per_event", "ns", ns}}},
		{replayProbe(jobEvents, func() (obs.Observer, error) {
			c := check.NewJobChecker()
			return c, c.Bind(jobCfg)
		}, func(o obs.Observer) error { return o.(*check.JobChecker).Finish().Err() }),
			[]reading{{"check.jobchecker_ns_per_event", "ns", ns}}},
		// Open the three pools and assign 64 jobs to them.
		{probe{20000, func() (func(int) error, error) {
			return func(n int) error {
				for i := 0; i < n; i++ {
					l, err := market.NewLedger(poolPlan, 1, func() sim.Time { return 0 }, nil)
					if err != nil {
						return err
					}
					for s := range l.Specs() {
						l.TryOpen(s, 120)
					}
					for j := 0; j < 64; j++ {
						if l.AssignPool() == nil {
							return fmt.Errorf("no pool admitted at a forecast of 120 cores")
						}
					}
				}
				return nil
			}, nil
		}}, []reading{{"market.admission_ns", "ns", ns}}},
		// One reconcile tick of the market: refill, 32 members drain, flush.
		{probe{100000, func() (func(int) error, error) {
			l, err := market.NewLedger(poolPlan, 1, func() sim.Time { return 0 }, nil)
			if err != nil {
				return nil, err
			}
			var pools []*market.Pool
			for s := range l.Specs() {
				if p := l.TryOpen(s, 120); p != nil {
					pools = append(pools, p)
				}
			}
			if len(pools) == 0 {
				return nil, fmt.Errorf("no pool admitted at a forecast of 120 cores")
			}
			return each(func(int) {
				l.Refill(100, 25*sim.Millisecond)
				for j := 0; j < 32; j++ {
					l.Drain(pools[j%len(pools)], 2*25*sim.Millisecond)
				}
				l.FlushAccounting()
			}), nil
		}}, []reading{{"market.refill_drain_ns", "ns", ns}}},
		// internal/bench's pinned two-server fleet second, for continuity with
		// BENCH_pr*.json's sched/placement.
		{probe{4, func() (func(int) error, error) {
			return func(n int) error {
				for i := 0; i < n; i++ {
					if _, err := sched.Run(sched.BenchConfig(1)); err != nil {
						return err
					}
				}
				return nil
			}, nil
		}}, []reading{{"sched.benchconfig_ms", "ms", func(c cost) float64 { return c.ns / 1e6 }}}},
	}

	out := probeResults{metrics: map[string]sample{}}
	for _, row := range table {
		row.probe.n = row.probe.n/div + 1
		c, err := row.probe.run()
		if err != nil {
			return none, fmt.Errorf("probe %s: %w", row.readings[0].name, err)
		}
		for _, r := range row.readings {
			out.metrics[r.name] = newSample(r.unit, r.part(c))
		}
	}
	var w countingWriter
	sink := obs.NewJSONL(&w)
	for i := range agentEvents {
		replay(sink, &agentEvents[i])
	}
	if err := sink.Flush(); err != nil {
		return none, err
	}
	out.jsonlBytesPerEvent = float64(w.n) / float64(len(agentEvents))
	return out, nil
}

// sinkFloat keeps the compiler from discarding a probe body's result.
var sinkFloat float64
