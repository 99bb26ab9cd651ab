package experiments

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"smartharvest/internal/apps"
	"smartharvest/internal/cluster"
	"smartharvest/internal/core"
	"smartharvest/internal/harness"
	"smartharvest/internal/learner"
	"smartharvest/internal/memharvest"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// Table3 reproduces the learning-operation latency table by timing this
// repository's actual Go implementation on the wall clock, exactly as the
// paper benchmarked its C++/Vowpal Wabbit agent. Units are microseconds.
func Table3(cfg Config) (*Report, error) {
	r := &Report{ID: "table3", Title: "latencies of learning operations (us, this implementation)"}
	rng := simrng.New(cfg.Seed)
	fe := learner.NewFeatureExtractor(10)
	samples := make([]int, 500) // one 25 ms window at 50 us polls
	for i := range samples {
		samples[i] = rng.Intn(11)
	}
	model := learner.NewCSOAA(11, learner.NumFeatures, 0.1)
	x := make([]float64, learner.NumFeatures)
	costs := make([]float64, 11)
	learner.FillCosts(costs, learner.SkewedCost{UnderPenalty: 10}, 5)
	f := fe.Compute(samples)
	f.Vector(x, 10)

	const iters = 200000
	timeOp := func(op func()) float64 {
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		return float64(time.Since(start).Nanoseconds()) / iters / 1e3
	}
	feat := timeOp(func() { _ = fe.Compute(samples) })
	infer := timeOp(func() { _ = model.Predict(x) })
	update := timeOp(func() { model.Update(x, costs) })

	t := newTable(r,
		col{head: "operation", w: -22, key: "operation"},
		col{head: "measured", w: 12, verb: "%.2fus", key: "measured_us"},
		col{head: "paper", w: 12})
	t.add("", "feature computation", feat, "2.6 +- 1.2")
	t.add("", "model inference", infer, "6.5 +- 4.1")
	t.add("", "model update", update, "10.8 +- 4.6")
	r.addf("(all well below the 25ms learning window, as in the paper)")
	return r, nil
}

// Ablations runs the design-choice studies DESIGN.md calls out beyond the
// paper's figures: the predictor family (CSOAA vs EWMA vs PrevPeak), the
// feature set, the polling interval, and the learning rate. All four
// sweeps (18 scenarios) share one no-harvest baseline and one worker pool.
func Ablations(cfg Config) (*Report, error) {
	spec := apps.Memcached(40000)
	shf := harness.SmartHarvestFactory
	preds := withBase(scenario(cfg, "abl-base", spec, harness.NoHarvestFactory()))
	pred := func(name string, f harness.ControllerFactory) { preds.add(name, scenario(cfg, "abl-"+name, spec, f)) }
	pred("csoaa (paper)", smartharvest(cfg))
	pred("csoaa adagrad", harness.SmartHarvestPredictorFactory(harness.PredictorAdaGrad, core.SmartHarvestOptions{}))
	pred("ewma a=0.3 m=1", harness.EWMAFactory(0.3, 1))
	pred("ewma a=0.1 m=2", harness.EWMAFactory(0.1, 2))
	pred("prevpeak", controller(cfg, "prevpeak"))
	pred("prevpeak10", controller(cfg, "prevpeak10"))
	var feats, polls, rates section
	for _, fs := range [][]string{nil, {"max"}, {"max", "avg"}, {"min", "avg", "std", "median"}} {
		label := cmp.Or(strings.Join(fs, "+"), "all five")
		feats.add(label, scenario(cfg, "abl-feat-"+label, spec, shf(core.SmartHarvestOptions{Features: fs})))
	}
	for _, us := range []int{25, 50, 200, 1000} {
		s := scenario(cfg, fmt.Sprintf("abl-poll-%d", us), spec, smartharvest(cfg))
		s.PollInterval = sim.Time(us) * sim.Microsecond
		polls.add(fmt.Sprintf("%dus", us), s)
	}
	for _, lr := range []float64{0.01, 0.1, 0.5} {
		f := shf(core.SmartHarvestOptions{LearningRate: lr})
		rates.add(fmt.Sprintf("%.2f", lr), scenario(cfg, fmt.Sprintf("abl-lr-%v", lr), spec, f))
	}
	if err := sweep(cfg, preds, &feats, &polls, &rates); err != nil {
		return nil, err
	}

	r := &Report{ID: "ablation", Title: "design-choice ablations (Memcached 40k + CPUBully)"}
	base := preds.base.res
	r.addf("no-harvest P99 = %s", ms(base.P99(0)))
	for _, st := range []struct {
		title, head string
		sec         *section
	}{
		{"predictor family", "predictor", preds},
		{"feature set", "features", &feats},
		{"polling interval", "interval", &polls},
		{"learning rate", "rate", &rates},
	} {
		r.addf("-- %s --", st.title)
		t := newTable(r, append([]col{{head: st.head, w: -22, key: "variant"}}, p99Cols...)...)
		for _, a := range st.sec.arms {
			t.add(st.title, a.name, vsBase(a.res, base))
		}
	}
	return r, nil
}

// Churn demonstrates the dynamics the paper's motivation calls out:
// primary VMs "arrive/depart at any time". A second Memcached tenant
// arrives mid-run and later the first departs; unallocated cores flow to
// the ElasticVM and the agent re-learns each mix.
func Churn(cfg Config) (*Report, error) {
	third := cfg.Duration / 3
	arrival := apps.Memcached(40000)
	s := scenario(cfg, "churn", apps.Memcached(40000), smartharvest(cfg))
	series := &windowSeries{}
	s.Observer = series
	s.Churn = []harness.ChurnEvent{
		{At: cfg.Warmup + third, Depart: -1, Arrive: &arrival},
		{At: cfg.Warmup + 2*third, Depart: 0},
	}
	var sec section
	sec.add("churn", s)
	if err := sweep(cfg, &sec); err != nil {
		return nil, err
	}

	r := &Report{ID: "churn", Title: "primary VM arrival/departure (Memcached tenants)"}
	res := sec.arms[0].res
	r.addf("phase 1 (tenant A alone), phase 2 (A+B), phase 3 (B alone; A's cores unallocated)")
	t := newTable(r,
		col{head: "tenant", w: -12, key: "tenant"},
		col{head: "P99", w: 14, verb: msVerb, key: "p99_ns"},
		col{head: "requests", w: 14, verb: "%d", key: "requests"})
	for _, p := range res.Primaries {
		t.add("tenants", p.Name, p.Latency.P99, p.Completed)
	}
	newTable(r,
		col{verb: "avg harvested over run: %.2f cores;", key: "harvested_cores"},
		col{verb: "resizes %d,", key: "resizes"},
		col{verb: "safeguards %d", key: "safeguards"},
	).add("", res.AvgHarvestedCores, res.Resizes, res.Safeguards)
	// Allocation trace: the primary target should track ~alloc of the
	// current phase (drop after the departure).
	r.addf("primary-core target over time:")
	for _, p := range series.target.Downsample(12).Points {
		r.addf("  t=%5.1fs target=%4.1f", float64(p.Time)/1e9, p.Value)
	}
	return r, nil
}

// Fleet runs the datacenter-scale extension: many independent
// SmartHarvest servers, a stream of tenant VMs placed first-fit, and the
// fleet-level harvest the paper's introduction motivates.
func Fleet(cfg Config) (*Report, error) {
	r := &Report{ID: "fleet", Title: "fleet of independent SmartHarvest servers (extension)"}
	// With NoHarvest the ElasticVMs still receive *unallocated* cores
	// (empty capacity slots) — the easy case of prior work; SmartHarvest
	// additionally harvests allocated-but-idle cores from live tenants.
	// The difference between the two rows is the paper's contribution.
	// Each policy's first line carries its Row; the figures on the other
	// three lines ride along as Row-only cells.
	t := newTable(r,
		col{w: -14, key: "policy"},
		col{verb: "placed=%d", key: "placed"},
		col{verb: "rejected=%d", key: "rejected"},
		col{verb: "departed=%d", key: "departed"},
		col{key: "harvested_core_s", hide: true},
		col{key: "elastic_core_s", hide: true},
		col{key: "tenant_p50_ns", hide: true},
		col{key: "tenant_p99_ns", hide: true})
	for _, pol := range []struct{ name, policy string }{
		{"unallocated-only", "noharvest"},
		{"smartharvest", "smartharvest"},
	} {
		res, err := cluster.Run(cluster.Config{
			Servers:      8,
			ArrivalRate:  1.2,
			MeanLifetime: cfg.Duration / 2,
			Duration:     cfg.Duration,
			Warmup:       cfg.Warmup,
			Seed:         cfg.Seed,
			Controller:   controller(cfg, pol.policy),
		})
		if err != nil {
			return nil, err
		}
		t.add("", pol.name, res.Placed, res.Rejected, res.Departed, res.HarvestedCoreSec,
			res.ElasticCPUSec, res.TenantLatency.P50, res.TenantLatency.P99)
		r.addf("%-14s harvested %.1f core-s total (%.2f cores/server avg); elastic executed %.1f core-s",
			pol.name, res.HarvestedCoreSec, res.FleetAvgHarvested, res.ElasticCPUSec)
		r.addf("%-14s per-server harvest spread (core-s): %s", pol.name, res.Spread)
		r.addf("%-14s tenant latency: P50=%s P99=%s over %d requests",
			pol.name, ms(res.TenantLatency.P50), ms(res.TenantLatency.P99), res.TenantLatency.Count)
	}
	r.addf("(every agent runs independently, as in the paper §3.3; placement is first-fit)")
	return r, nil
}

// SafeguardSweep sweeps the long-term safeguard trip criterion along its
// two failure axes: false positives on a healthy millisecond-scale
// workload (IndexServe — strict settings throttle harvest for nothing)
// and detection on the chronic swinging-Memcached pair (lax settings miss
// real damage). This is the calibration study behind DESIGN.md's guard
// discussion.
func SafeguardSweep(cfg Config) (*Report, error) {
	criteria := []struct {
		thresh sim.Time
		frac   float64
	}{
		{25 * sim.Microsecond, 0.002},
		{50 * sim.Microsecond, 0.01},
		{200 * sim.Microsecond, 0.01},
		{500 * sim.Microsecond, 0.05},
	}
	sweeps := []struct {
		title     string
		primaries []apps.PrimarySpec
	}{
		{"healthy ms-scale tenant (IndexServe 500), strictness costs harvest",
			[]apps.PrimarySpec{apps.IndexServe(500)}},
		{"chronic swings (2x MemcachedSwinging 60k), laxness misses damage",
			[]apps.PrimarySpec{apps.MemcachedSwinging(60000), apps.MemcachedSwinging(60000)}},
	}

	// Per sweep: the baseline, guard off, then one arm per trip criterion.
	secs := make([]*section, len(sweeps))
	for si, sw := range sweeps {
		mk := func(thresh sim.Time, frac float64, guard bool, ctrl harness.ControllerFactory) harness.Scenario {
			s := scenarioOf(cfg, "guard-sweep", ctrl, guard, sw.primaries...)
			s.QoSWaitThreshold, s.QoSViolationFrac = thresh, frac
			return s
		}
		secs[si] = withBase(mk(0, 0, false, harness.NoHarvestFactory()))
		secs[si].add("guard off", mk(0, 0, false, smartharvest(cfg)))
		for _, c := range criteria {
			secs[si].add(fmt.Sprintf("%dus/%.1f%%", int(c.thresh.Microseconds()), c.frac*100),
				mk(c.thresh, c.frac, true, smartharvest(cfg)))
		}
	}
	if err := sweep(cfg, secs...); err != nil {
		return nil, err
	}

	r := &Report{ID: "guard-sweep", Title: "long-term safeguard sensitivity"}
	for si, sw := range sweeps {
		base := secs[si].base.res
		r.addf("-- %s: no-harvest P99 = %s --", sw.title, ms(base.P99(0)))
		t := newTable(r,
			col{key: "criterion", hide: true},
			col{head: "threshold/frac", w: -24},
			p99Cols[0], p99Cols[1],
			col{head: "harvested", w: 10, verb: "%.2f", key: "harvested_cores"},
			col{head: "trips", w: 6, verb: "%d", key: "qos_trips"})
		for _, a := range secs[si].arms {
			var trips any // guard off: no trips to count
			if a.scen.LongTermSafeguard {
				trips = a.res.QoSTrips
			}
			t.add(fmt.Sprintf("sweep-%d", si), a.name, strings.Replace(a.name, "/", " / ", 1),
				vsBase(a.res, base)[:2], a.res.AvgHarvestedCores, trips)
		}
	}
	return r, nil
}

// MemHarvest runs the future-work prototype (paper §3.2): the same online
// learner harvesting memory instead of cores, against fixed-headroom
// baselines, on a slowly-drifting working set with allocation surges.
func MemHarvest(cfg Config) (*Report, error) {
	r := &Report{ID: "memharvest", Title: "memory harvesting prototype (paper future work)"}
	mh := memharvest.Config{
		Duration: 4 * cfg.Duration, // memory moves on second scales
		Warmup:   cfg.Warmup,
		Seed:     cfg.Seed,
	}
	t := newTable(r,
		col{head: "policy", w: -18, key: "policy"},
		col{head: "harvested GB", w: 14, verb: "%.1f", key: "harvested_gb"},
		col{head: "fault GB-s", w: 14, verb: "%.2f", key: "fault_gb_s"},
		col{head: "episodes", w: 10, verb: "%d", key: "short_episodes"},
		col{head: "reclaims", w: 9, verb: "%d", key: "reclaims"})
	names := []string{"smartharvest-mem"}
	ctrls := []core.Controller{memharvest.PeakFloor{Controller: core.NewSmartHarvest(memharvest.TotalGB,
		core.SmartHarvestOptions{Cost: learner.SkewedCost{UnderPenalty: memharvest.TotalGB / 4}})}}
	for _, k := range []int{2, 8, 16, 24} {
		names = append(names, fmt.Sprintf("fixed-%dGB", k))
		ctrls = append(ctrls, core.NewFixedBuffer(memharvest.TotalGB, k))
	}
	for i, ctrl := range ctrls {
		res := memharvest.Run(mh, ctrl)
		t.add("", names[i], res.AvgHarvestedGB, res.FaultSeconds, res.ShortEpisodes, res.Reclaims)
	}
	r.addf("(same CSOAA learner as the CPU agent, zero per-workload tuning: it lands on")
	r.addf(" the fixed-headroom frontier automatically; actuation differs from CPU —")
	r.addf(" reclaim is slow, growth cheap: the asymmetry §3.2 cites for deferring memory)")
	return r, nil
}
