package harness

import (
	"bytes"
	"reflect"
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/check"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// checkedScenario is a short standard scenario for verification tests.
func checkedScenario(name string) Scenario {
	return Scenario{
		Name:              name,
		Primaries:         []apps.PrimarySpec{apps.Memcached(40000)},
		Batch:             BatchCPUBully,
		Duration:          1 * sim.Second,
		Warmup:            200 * sim.Millisecond,
		Seed:              1,
		LongTermSafeguard: true,
	}
}

// TestRunWithCheckerClean: the real agent and hypervisor satisfy every
// invariant across representative scenario shapes — the per-commit
// end-to-end verification the checker exists for.
func TestRunWithCheckerClean(t *testing.T) {
	scenarios := []Scenario{
		checkedScenario("check-smartharvest"),
		func() Scenario {
			s := checkedScenario("check-ipis")
			s.Mechanism = hypervisor.IPI
			return s
		}(),
		func() Scenario {
			s := checkedScenario("check-fixedbuffer")
			s.Controller = FixedBufferFactory(4)
			return s
		}(),
		func() Scenario {
			s := checkedScenario("check-batchjob")
			s.Batch = BatchHDInsight
			return s
		}(),
		func() Scenario {
			s := checkedScenario("check-churn")
			s.Primaries = []apps.PrimarySpec{apps.Memcached(40000), apps.IndexServe(500)}
			spec := apps.IndexServe(500)
			s.Churn = []ChurnEvent{
				{At: 400 * sim.Millisecond, Depart: 1},
				{At: 700 * sim.Millisecond, Depart: -1, Arrive: &spec},
			}
			return s
		}(),
	}
	for _, s := range scenarios {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			s.Checker = check.New()
			res, err := Run(s)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if res.Check == nil {
				t.Fatal("Result.Check is nil with a checker attached")
			}
			if err := res.Check.Err(); err != nil {
				t.Fatalf("invariant violations:\n%s", res.Check)
			}
			if res.Check.Events == 0 {
				t.Fatal("checker observed no events")
			}
		})
	}
}

// TestRunWithoutCheckerNoReport: no checker, no report — and no cost.
func TestRunWithoutCheckerNoReport(t *testing.T) {
	res, err := Run(checkedScenario("check-absent"))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Check != nil {
		t.Fatal("Result.Check set without a checker attached")
	}
}

// TestCheckerChainsAfterObserver: an attached checker must not displace
// the user's observer — both see the stream.
func TestCheckerChainsAfterObserver(t *testing.T) {
	ring := obs.NewRing(8)
	s := checkedScenario("check-chained")
	s.Observer = ring
	s.Checker = check.New()
	res, err := Run(s)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if ring.TotalEvents() == 0 {
		t.Fatal("user observer starved by the checker")
	}
	if res.Check == nil || res.Check.Events == 0 {
		t.Fatal("checker starved by the user observer")
	}
}

// TestCheckerReuseRejected: one Checker verifies one run.
func TestCheckerReuseRejected(t *testing.T) {
	first, second := checkedScenario("check-first"), checkedScenario("check-second")
	first.Checker = check.New()
	second.Checker = first.Checker
	if _, err := Run(first); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if _, err := Run(second); err == nil {
		t.Fatal("Run accepted an already-bound checker")
	}
}

// TestBaselineScenarioDropsChecker: RunSpeedup's baseline run must not
// inherit the with-run's checker (it can only bind once) or its observer
// (a trace would hold both runs, its clock going back at the seam).
func TestBaselineScenarioDropsChecker(t *testing.T) {
	s := checkedScenario("check-speedup")
	s.Checker = check.New()
	s.Observer = obs.NopObserver{}
	if base := BaselineScenario(s); base.Checker != nil || base.Observer != nil {
		t.Fatalf("BaselineScenario kept the original's checker %v or observer %v", base.Checker, base.Observer)
	}
}

// TestDifferentialOracleFixedBufferVsNoHarvest: FixedBuffer with the
// buffer equal to the full allocation never harvests — its target is
// pinned to alloc, exactly like NoHarvest. The two policies must
// therefore produce byte-identical full traces (polls included) and
// identical primary-side results for the same scenario and seed: a
// differential oracle over the entire agent/hypervisor/workload stack.
func TestDifferentialOracleFixedBufferVsNoHarvest(t *testing.T) {
	run := func(f ControllerFactory) ([]byte, *Result) {
		var buf bytes.Buffer
		sink := obs.NewJSONL(&buf)
		s := checkedScenario("differential")
		s.LongTermSafeguard = false // neither policy has Safeguards()
		s.Controller = f
		s.Observer = sink
		s.Checker = check.New()
		res, err := Run(s)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if err := sink.Flush(); err != nil {
			t.Fatalf("flush: %v", err)
		}
		if err := res.Check.Err(); err != nil {
			t.Fatalf("invariant violations:\n%s", res.Check)
		}
		return buf.Bytes(), res
	}

	// Buffer k = alloc (10): target = min(busy+alloc, alloc) = alloc
	// always, so the ElasticVM is pinned to its minimum.
	fbTrace, fbRes := run(FixedBufferFactory(10))
	nhTrace, nhRes := run(NoHarvestFactory())

	if !bytes.Equal(fbTrace, nhTrace) {
		// Find the first diverging line for the failure message.
		fb := bytes.Split(fbTrace, []byte("\n"))
		nh := bytes.Split(nhTrace, []byte("\n"))
		for i := 0; i < min(len(fb), len(nh)); i++ {
			if !bytes.Equal(fb[i], nh[i]) {
				t.Fatalf("traces diverge at line %d:\nfixedbuffer: %s\nnoharvest:   %s",
					i+1, fb[i], nh[i])
			}
		}
		t.Fatalf("traces differ in length: %d vs %d lines", len(fb), len(nh))
	}
	if !reflect.DeepEqual(fbRes.Primaries, nhRes.Primaries) {
		t.Fatalf("primary-side results diverge:\nfixedbuffer: %+v\nnoharvest:   %+v",
			fbRes.Primaries, nhRes.Primaries)
	}
	if fbRes.Resizes != 0 || nhRes.Resizes != 0 {
		t.Fatalf("pinned policies resized: fixedbuffer=%d noharvest=%d",
			fbRes.Resizes, nhRes.Resizes)
	}
	if fbRes.AvgHarvestedCores != 0 || nhRes.AvgHarvestedCores != 0 {
		t.Fatalf("pinned policies harvested: fixedbuffer=%.3f noharvest=%.3f",
			fbRes.AvgHarvestedCores, nhRes.AvgHarvestedCores)
	}
}
