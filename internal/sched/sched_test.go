package sched

import (
	"bytes"
	"fmt"
	"testing"

	"smartharvest/internal/check"
	"smartharvest/internal/cluster"
	"smartharvest/internal/faults"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// quietFleet is a lightly loaded fleet: plenty of harvest for jobs.
func quietFleet(seed uint64) cluster.Config {
	return cluster.Config{
		Servers:      2,
		ArrivalRate:  0.2,
		MeanLifetime: 10 * sim.Second,
		Duration:     40 * sim.Second,
		Warmup:       2 * sim.Second,
		Seed:         seed,
	}
}

// churnFleet is a heavily loaded fleet: tenants stream in and out, so
// harvested capacity collapses under running jobs and evictions happen.
func churnFleet(seed uint64) cluster.Config {
	return cluster.Config{
		Servers:      2,
		ArrivalRate:  2.5,
		MeanLifetime: 3 * sim.Second,
		Duration:     40 * sim.Second,
		Warmup:       2 * sim.Second,
		Seed:         seed,
	}
}

func TestParsePolicy(t *testing.T) {
	t.Parallel()
	for _, p := range []Policy{FirstFit, BestFit, Predicted} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip %v: got %v, %v", p, got, err)
		}
	}
	if _, err := ParsePolicy("oracle"); err == nil {
		t.Fatal("unknown policy parsed")
	}
	if Policy(99).String() != "unknown" {
		t.Fatal("out-of-range String")
	}
}

func TestSchedCompletesJobsAllPolicies(t *testing.T) {
	t.Parallel()
	for _, p := range []Policy{FirstFit, BestFit, Predicted} {
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			c := check.NewJobChecker()
			res, err := Run(Config{
				Fleet:   quietFleet(11),
				Policy:  p,
				Checker: c,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Submitted == 0 || res.Completed == 0 {
				t.Fatalf("submitted %d, completed %d; jobs should finish on a quiet fleet",
					res.Submitted, res.Completed)
			}
			if res.GoodputCoreSec <= 0 {
				t.Fatalf("goodput %v, want positive", res.GoodputCoreSec)
			}
			if res.CompletionP50 <= 0 || res.CompletionP99 < res.CompletionP50 {
				t.Fatalf("completion quantiles P50 %v P99 %v", res.CompletionP50, res.CompletionP99)
			}
			if res.Completed+res.Abandoned+res.Unfinished != res.Submitted {
				t.Fatalf("job accounting does not balance: %+v", res)
			}
			if res.Check == nil || !res.Check.OK() {
				t.Fatalf("invariant violations: %v", res.Check)
			}
			if res.Fleet == nil || res.Fleet.Placed == 0 {
				t.Fatal("fleet result missing or no tenants placed")
			}
		})
	}
}

func TestSchedEvictsAndRequeuesUnderChurn(t *testing.T) {
	t.Parallel()
	c := check.NewJobChecker()
	res, err := Run(Config{
		Fleet:       churnFleet(13),
		Policy:      FirstFit,
		ArrivalRate: 2,
		Checker:     c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions == 0 {
		t.Fatal("no evictions under heavy tenant churn; harvest collapse not exercised")
	}
	if res.Requeues == 0 {
		t.Fatal("evicted jobs were not requeued")
	}
	// The checker proves the eviction path end to end: progress is
	// monotone, never exceeds the allotment (no double counting), grants
	// never exceed free harvest, and the requeue budget holds.
	if !res.Check.OK() {
		t.Fatalf("invariant violations under churn: %v", res.Check)
	}
	if res.Completed == 0 {
		t.Fatal("nothing completed despite requeues")
	}
}

func TestSchedSLOAccounting(t *testing.T) {
	t.Parallel()
	res, err := Run(Config{
		Fleet:  quietFleet(17),
		Policy: BestFit,
		Jobs:   []JobSpec{{Work: 2 * sim.Second, Width: 4, Deadline: 8 * sim.Second}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SLOJobs == 0 {
		t.Fatal("no decided SLO jobs in a deadline-only mix")
	}
	if res.SLOMet > res.SLOJobs {
		t.Fatalf("SLO met %d > decided %d", res.SLOMet, res.SLOJobs)
	}
	if a := res.SLOAttainment(); a < 0 || a > 1 {
		t.Fatalf("attainment %v out of range", a)
	}
	// A quiet fleet with generous deadlines should mostly make them.
	if res.SLOAttainment() < 0.5 {
		t.Fatalf("attainment %v suspiciously low on a quiet fleet", res.SLOAttainment())
	}
}

func TestSchedDeterministic(t *testing.T) {
	t.Parallel()
	sig := func() string {
		res, err := Run(Config{Fleet: churnFleet(23), Policy: Predicted})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%d/%d/%d/%d/%d %v %v %.3f %d/%d",
			res.Submitted, res.Completed, res.Abandoned, res.Unfinished,
			res.Evictions, res.CompletionP50, res.CompletionP99,
			res.GoodputCoreSec, res.SLOMet, res.SLOJobs)
	}
	a, b := sig(), sig()
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
}

func TestSchedJobStreamLeavesTenantsUntouched(t *testing.T) {
	t.Parallel()
	// The job scheduler must not perturb the tenant process: a plain
	// cluster run (bully disabled) and a sched run from the same seed
	// place and reject exactly the same tenants.
	fleetCfg := churnFleet(29)
	fleetCfg.DisableElasticBully = true
	plain, err := cluster.Run(fleetCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Fleet: churnFleet(29), Policy: FirstFit})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Placed != res.Fleet.Placed || plain.Rejected != res.Fleet.Rejected ||
		plain.Departed != res.Fleet.Departed {
		t.Fatalf("tenant stream perturbed: plain %d/%d/%d, sched %d/%d/%d",
			plain.Placed, plain.Rejected, plain.Departed,
			res.Fleet.Placed, res.Fleet.Rejected, res.Fleet.Departed)
	}
}

func TestSchedConfigValidation(t *testing.T) {
	t.Parallel()
	bad := []Config{
		{Fleet: quietFleet(1), Policy: Policy(9)},
		{Fleet: quietFleet(1), ArrivalRate: -1},
		{Fleet: quietFleet(1), MaxRequeues: -2},
		{Fleet: quietFleet(1), Jobs: []JobSpec{{Work: 0, Width: 1}}},
		{Fleet: quietFleet(1), Jobs: []JobSpec{{Work: sim.Second, Width: 0}}},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// BenchmarkPlacement: one iteration is one BenchConfig run — placement,
// reconcile, eviction, and requeue end to end on a churny two-server
// fleet.
func BenchmarkPlacement(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(BenchConfig(1)); err != nil {
			b.Fatal(err)
		}
	}
}

func mustPlan(t *testing.T, s string) faults.Plan {
	t.Helper()
	p, err := faults.ParsePlan(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSchedSurvivesServerCrashes(t *testing.T) {
	t.Parallel()
	fc := quietFleet(19)
	fc.Faults = mustPlan(t, "scrash=0.004,srestartdur=400ms")
	c := check.NewJobChecker()
	res, err := Run(Config{Fleet: fc, Policy: FirstFit, ArrivalRate: 2, Checker: c})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Check.Violations; len(v) > 0 {
		t.Fatalf("checker violations under crashes: %v", v[0])
	}
	if res.Crashes == 0 {
		t.Fatal("no crashes at scrash=0.004 over 40s")
	}
	if res.Orphaned == 0 {
		t.Fatal("crashes never caught a running job")
	}
	if res.Evictions < res.Orphaned {
		t.Fatalf("%d orphan evictions not charged to the %d total", res.Orphaned, res.Evictions)
	}
	if res.Quarantines == 0 {
		t.Fatal("restarted servers were never quarantined")
	}
	if res.Completed == 0 {
		t.Fatal("the fleet completed nothing despite self-healing")
	}
}

func TestSchedStaleReadStormDoesNotMassEvict(t *testing.T) {
	t.Parallel()
	// Regression: the reconcile loop used to trust a single collapsed
	// harvest reading, so a stale telemetry channel serving its initial
	// zero would be mistaken for a collapse and evict every running job
	// each round. A collapse seen on a stale read must now be confirmed
	// by a fresh one before anything is evicted.
	fc := quietFleet(23)
	fc.Faults = mustPlan(t, "rstale=1")
	c := check.NewJobChecker()
	res, err := Run(Config{Fleet: fc, Policy: FirstFit, Checker: c})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Check.Violations; len(v) > 0 {
		t.Fatalf("checker violations under stale reads: %v", v[0])
	}
	if res.Evictions != 0 {
		t.Fatalf("%d evictions from stale telemetry alone; collapse was never confirmed fresh",
			res.Evictions)
	}
	if res.Completed == 0 {
		t.Fatal("no jobs completed through a stale-read storm")
	}
}

func TestSchedGrantDropsRetryThenQuarantine(t *testing.T) {
	t.Parallel()
	fc := quietFleet(29)
	fc.Faults = mustPlan(t, "gdrop=0.6")
	c := check.NewJobChecker()
	res, err := Run(Config{
		Fleet: fc, Policy: Predicted, ArrivalRate: 2,
		QuarantineAfter: 2, Checker: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Check.Violations; len(v) > 0 {
		t.Fatalf("checker violations under grant drops: %v", v[0])
	}
	if res.PlacementRetries == 0 {
		t.Fatal("dropped grants were never retried")
	}
	if res.Quarantines == 0 {
		t.Fatal("a 60% drop rate never quarantined a server")
	}
	if res.Completed == 0 {
		t.Fatal("no jobs completed despite retries")
	}
}

func TestSchedDegradedAdmissionUnderFaultStorm(t *testing.T) {
	t.Parallel()
	fc := quietFleet(31)
	fc.Faults = mustPlan(t, "gdrop=0.9,rloss=0.4,scrash=0.008")
	m := obs.NewMetrics()
	fc.Observer = m
	c := check.NewJobChecker()
	res, err := Run(Config{Fleet: fc, Policy: BestFit, ArrivalRate: 4, Checker: c})
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Check.Violations; len(v) > 0 {
		t.Fatalf("checker violations under the fault storm: %v", v[0])
	}
	if res.Degraded == 0 {
		t.Fatal("admission never degraded under a sustained fault storm")
	}
	if m.AdmissionDegraded != uint64(res.Degraded) {
		t.Fatalf("metrics saw %d degradations, result says %d", m.AdmissionDegraded, res.Degraded)
	}
	if m.AdmissionRecovered == 0 {
		t.Fatal("admission never recovered between fault bursts")
	}
}

func TestSchedResilienceKnobsInertOnFaultFreeRuns(t *testing.T) {
	t.Parallel()
	// The resilience machinery must be invisible without fleet faults:
	// a fault-free run's full event trace is byte-identical no matter
	// how the knobs are tuned.
	trace := func(cfg Config) []byte {
		var buf bytes.Buffer
		cfg.Fleet.Observer = obs.NewJSONL(&buf)
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	base := Config{Fleet: churnFleet(7), Policy: Predicted}
	tuned := base
	tuned.MaxPlacementRetries = 9
	tuned.PlacementBackoff = sim.Millisecond
	tuned.QuarantineAfter = 1
	tuned.QuarantineDur = 50 * sim.Millisecond
	tuned.QuarantineMax = 200 * sim.Millisecond
	tuned.ProbationDur = 100 * sim.Millisecond
	tuned.DegradeEnter = 2
	tuned.DegradeExit = 1
	a, b := trace(base), trace(tuned)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("resilience knobs perturbed a fault-free run: %d vs %d trace bytes", len(a), len(b))
	}
}
