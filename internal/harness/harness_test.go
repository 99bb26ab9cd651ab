package harness

import (
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/core"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/sim"
)

// short returns a scenario sized for unit tests: long enough for the
// learner to settle, short enough to keep the suite fast.
func short(name string, primary apps.PrimarySpec) Scenario {
	return Scenario{
		Name:              name,
		Primaries:         []apps.PrimarySpec{primary},
		Duration:          6 * sim.Second,
		Warmup:            2 * sim.Second,
		Seed:              7,
		LongTermSafeguard: true,
	}
}

func TestNoHarvestBaseline(t *testing.T) {
	s := short("baseline", apps.Memcached(40000))
	s.Controller = NoHarvestFactory()
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgHarvestedCores > 0.01 {
		t.Fatalf("noharvest harvested %v cores", res.AvgHarvestedCores)
	}
	if res.Policy != "noharvest" {
		t.Fatalf("policy %q", res.Policy)
	}
	if res.Primaries[0].Latency.Count == 0 {
		t.Fatal("no latency samples")
	}
	// The 1-core ElasticVM still executes ~1 core-second per second.
	if res.ElasticCPUSeconds < 5 || res.ElasticCPUSeconds > 6.5 {
		t.Fatalf("elastic cpu %v core-s over 6s on 1 core", res.ElasticCPUSeconds)
	}
}

func TestSmartHarvestProtectsTailAndHarvests(t *testing.T) {
	// The headline property (paper Figure 5): SmartHarvest harvests
	// meaningfully while keeping P99 within ~10% of no-harvesting.
	base := short("mc-base", apps.Memcached(40000))
	base.Controller = NoHarvestFactory()
	baseRes, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	s := short("mc-sh", apps.Memcached(40000))
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgHarvestedCores < 0.5 {
		t.Fatalf("smartharvest harvested only %v cores", res.AvgHarvestedCores)
	}
	p99Base := float64(baseRes.P99(0))
	p99 := float64(res.P99(0))
	if p99 > p99Base*1.25 {
		t.Fatalf("P99 %v vs baseline %v: degradation %.0f%%",
			sim.Time(int64(p99)), sim.Time(int64(p99Base)), (p99/p99Base-1)*100)
	}
	if res.Windows == 0 || res.Resizes == 0 {
		t.Fatal("agent did not run")
	}
}

func TestTinyFixedBufferHurtsTail(t *testing.T) {
	// A 1-core buffer must degrade Memcached's tail far more than
	// SmartHarvest does while harvesting more — the Figure 5 trade-off.
	base := short("mc-base", apps.Memcached(40000))
	base.Controller = NoHarvestFactory()
	baseRes, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	s := short("mc-fb1", apps.Memcached(40000))
	s.Controller = FixedBufferFactory(1)
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgHarvestedCores < 3 {
		t.Fatalf("fixed buffer 1 harvested %v; should be aggressive", res.AvgHarvestedCores)
	}
	if float64(res.P99(0)) < float64(baseRes.P99(0))*1.3 {
		t.Fatalf("fixed buffer 1 P99 %v vs base %v: expected heavy degradation",
			res.P99(0), baseRes.P99(0))
	}
}

func TestLargeFixedBufferSafeButWasteful(t *testing.T) {
	base := short("mc-base", apps.Memcached(40000))
	base.Controller = NoHarvestFactory()
	baseRes, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	s := short("mc-fb7", apps.Memcached(40000))
	s.Controller = FixedBufferFactory(7)
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if float64(res.P99(0)) > float64(baseRes.P99(0))*1.2 {
		t.Fatalf("fixed buffer 7 P99 %v vs base %v; should be safe",
			res.P99(0), baseRes.P99(0))
	}
	if res.AvgHarvestedCores > 2.5 {
		t.Fatalf("fixed buffer 7 harvested %v; should be conservative", res.AvgHarvestedCores)
	}
}

func TestSpeedupHDInsight(t *testing.T) {
	s := short("is-hdi", apps.IndexServe(500))
	s.Batch = BatchHDInsight
	s.Duration = 10 * sim.Second
	// The paper's QoS-guard constants chronically arm on ms-scale
	// services under the simulator's coarser wait accounting (see
	// DESIGN.md); IndexServe runs disable the long-term guard.
	s.Controller = SmartHarvestFactory(core.SmartHarvestOptions{})
	s.LongTermSafeguard = false
	speedup, with, baseline, err := RunSpeedup(s)
	if err != nil {
		t.Fatal(err)
	}
	if speedup < 1.5 {
		t.Fatalf("hdinsight speedup %v; harvesting should help (with=%v base=%v)",
			speedup, with.BatchTime, baseline.BatchTime)
	}
	if speedup > 9 {
		t.Fatalf("hdinsight speedup %v implausible", speedup)
	}
}

func TestMultiplePrimariesShareGroup(t *testing.T) {
	s := Scenario{
		Name:              "multi",
		Primaries:         []apps.PrimarySpec{apps.Memcached(40000), apps.IndexServe(500)},
		Duration:          5 * sim.Second,
		Warmup:            2 * sim.Second,
		Seed:              3,
		LongTermSafeguard: true,
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Primaries) != 2 {
		t.Fatalf("primaries %d", len(res.Primaries))
	}
	for _, p := range res.Primaries {
		if p.Latency.Count == 0 {
			t.Fatalf("%s recorded no latencies", p.Name)
		}
	}
	// 20 primary cores + 1 elastic: harvest opportunity is larger.
	if res.AvgHarvestedCores < 1 {
		t.Fatalf("harvested %v from two mostly-idle primaries", res.AvgHarvestedCores)
	}
}

func TestIPIMechanismHarvestsMore(t *testing.T) {
	// Figure 15's headline: with the same policy, IPIs harvest at least
	// as much as cpugroups (faster effects and no post-resize sleep).
	mk := func(mech hypervisor.Mechanism) float64 {
		s := short("is", apps.IndexServe(1000))
		s.Mechanism = mech
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgHarvestedCores
	}
	cg := mk(hypervisor.CpuGroups)
	ipi := mk(hypervisor.IPI)
	if ipi < cg*0.9 {
		t.Fatalf("IPI harvested %v vs cpugroups %v; should not be materially worse", ipi, cg)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		s := short("det", apps.Memcached(40000))
		s.Duration = 3 * sim.Second
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.P99(0) != b.P99(0) || a.AvgHarvestedCores != b.AvgHarvestedCores ||
		a.Resizes != b.Resizes || a.Safeguards != b.Safeguards {
		t.Fatalf("same seed, different results:\n%+v\n%+v", a, b)
	}
}

func TestSeedChangesResults(t *testing.T) {
	run := func(seed uint64) *Result {
		s := short("seed", apps.Memcached(40000))
		s.Duration = 3 * sim.Second
		s.Seed = seed
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if run(1).Primaries[0].Offered == run(2).Primaries[0].Offered {
		t.Fatal("different seeds produced identical offered counts")
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(Scenario{Name: "empty"}); err == nil {
		t.Fatal("empty scenario accepted")
	}
	if _, _, _, err := RunSpeedup(short("x", apps.Memcached(1000))); err == nil {
		t.Fatal("speedup without finite batch accepted")
	}
	s := short("x", apps.Memcached(1000))
	s.Batch = BatchKind(42)
	if _, err := Run(s); err == nil {
		t.Fatal("unknown batch kind accepted")
	}
}

func TestBatchKindString(t *testing.T) {
	want := map[BatchKind]string{
		BatchCPUBully: "cpubully", BatchHDInsight: "hdinsight",
		BatchTeraSort: "terasort", BatchNone: "none",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d -> %q", k, k.String())
		}
	}
}

func TestFactories(t *testing.T) {
	cases := map[string]ControllerFactory{
		"smartharvest":  SmartHarvestFactory(core.SmartHarvestOptions{}),
		"fixedbuffer-3": FixedBufferFactory(3),
		"prevpeak":      PrevPeakFactory(1, false),
		"noharvest":     NoHarvestFactory(),
		"ewma":          EWMAFactory(0.3, 1),
	}
	for want, f := range cases {
		if got := f(10).Name(); got != want {
			t.Errorf("factory produced %q, want %q", got, want)
		}
	}
}

// TestHeadlineLatencyProtection is the paper's central claim as a
// regression test: for every primary workload at its standard load,
// SmartHarvest (configured as the experiments configure it) keeps P99
// within +10% of the no-harvesting baseline while harvesting a nonzero
// number of cores.
func TestHeadlineLatencyProtection(t *testing.T) {
	specs := []struct {
		spec  apps.PrimarySpec
		guard bool
	}{
		{apps.Memcached(40000), true}, // sub-ms class: guard on
		{apps.IndexServe(500), false}, // ms class: guard off (DESIGN.md)
		{apps.Moses(400), false},
		{apps.ImgDNN(2000), false},
	}
	for _, c := range specs {
		c := c
		t.Run(c.spec.Name, func(t *testing.T) {
			mk := func(ctrl ControllerFactory, guard bool) *Result {
				s := Scenario{
					Name:              "headline-" + c.spec.Name,
					Primaries:         []apps.PrimarySpec{c.spec},
					Duration:          8 * sim.Second,
					Warmup:            2 * sim.Second,
					Seed:              17,
					Controller:        ctrl,
					LongTermSafeguard: guard,
				}
				res, err := Run(s)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			base := mk(NoHarvestFactory(), false)
			res := mk(SmartHarvestFactory(core.SmartHarvestOptions{}), c.guard)
			if res.AvgHarvestedCores <= 0.05 {
				t.Fatalf("harvested only %v cores", res.AvgHarvestedCores)
			}
			limit := float64(base.P99(0)) * 1.10
			if float64(res.P99(0)) > limit {
				t.Fatalf("P99 %v exceeds +10%% of baseline %v",
					sim.Time(res.P99(0)), sim.Time(base.P99(0)))
			}
		})
	}
}

// TestHeadlineAcrossSeeds re-checks the latency-protection property for
// the most sensitive workload across several seeds (the paper averages
// three runs; we assert the bound holds in each).
func TestHeadlineAcrossSeeds(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		seed := seed
		mk := func(ctrl ControllerFactory) *Result {
			res, err := Run(Scenario{
				Name:              "seeds",
				Primaries:         []apps.PrimarySpec{apps.Memcached(40000)},
				Duration:          6 * sim.Second,
				Warmup:            2 * sim.Second,
				Seed:              seed,
				Controller:        ctrl,
				LongTermSafeguard: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		base := mk(NoHarvestFactory())
		res := mk(SmartHarvestFactory(core.SmartHarvestOptions{}))
		if float64(res.P99(0)) > float64(base.P99(0))*1.10 {
			t.Errorf("seed %d: P99 %v vs base %v exceeds +10%%",
				seed, res.P99(0), base.P99(0))
		}
		if res.AvgHarvestedCores <= 0 {
			t.Errorf("seed %d: no harvest", seed)
		}
	}
}

// TestIPICrossoverForFixedBuffers checks Figure 15's central crossover: a
// small fixed buffer that badly violates the latency bound on the stock
// cpugroups mechanism becomes safe with merge-call+IPI reassignment.
func TestIPICrossoverForFixedBuffers(t *testing.T) {
	mk := func(mech hypervisor.Mechanism, ctrl ControllerFactory) *Result {
		res, err := Run(Scenario{
			Name:       "crossover",
			Primaries:  []apps.PrimarySpec{apps.IndexServe(1000)},
			Duration:   8 * sim.Second,
			Warmup:     2 * sim.Second,
			Seed:       19,
			Mechanism:  mech,
			Controller: ctrl,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := mk(hypervisor.CpuGroups, NoHarvestFactory())
	slowFB := mk(hypervisor.CpuGroups, FixedBufferFactory(2))
	fastFB := mk(hypervisor.IPI, FixedBufferFactory(2))
	limit := float64(base.P99(0)) * 1.10
	if float64(slowFB.P99(0)) <= limit {
		t.Fatalf("fixed buffer 2 on cpugroups P99 %v within bound; expected violation",
			sim.Time(slowFB.P99(0)))
	}
	if float64(fastFB.P99(0)) > limit {
		t.Fatalf("fixed buffer 2 on IPIs P99 %v exceeds bound %v; crossover missing",
			sim.Time(fastFB.P99(0)), sim.Time(int64(limit)))
	}
	// And the buffer harvests comparably on both mechanisms.
	if fastFB.AvgHarvestedCores < slowFB.AvgHarvestedCores*0.8 {
		t.Fatalf("IPI harvest %v much lower than cpugroups %v",
			fastFB.AvgHarvestedCores, slowFB.AvgHarvestedCores)
	}
}
