package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/sim"
)

// representativeScenarios covers one scenario per experiment family:
// single-primary (fig4/5/10/13-style), multi-primary (fig8/9/11),
// NoHarvest (table1), a square wave under PrevPeak (fig7), batch
// completion (fig6), and churn.
func representativeScenarios() []Scenario {
	mcArrival := apps.Memcached(20000)
	short := func(name string, primaries ...apps.PrimarySpec) Scenario {
		return Scenario{
			Name:      name,
			Primaries: primaries,
			Duration:  3 * sim.Second,
			Warmup:    sim.Second,
			Seed:      11,
		}
	}
	single := short("single-primary", apps.Memcached(40000))
	single.LongTermSafeguard = true

	multi := short("multi-primary", apps.Memcached(40000), apps.IndexServe(500))
	multi.Controller = FixedBufferFactory(6)

	noharvest := short("noharvest", apps.IndexServe(500))
	noharvest.Controller = NoHarvestFactory()

	square := short("square-wave", apps.SquareWave(8, 1, 500*sim.Millisecond))
	square.Controller = PrevPeakFactory(1, false)

	batch := short("batch", apps.IndexServe(500))
	batch.Batch = BatchTeraSort

	churn := short("churn", apps.Memcached(20000))
	churn.Churn = []ChurnEvent{
		{At: 2 * sim.Second, Depart: -1, Arrive: &mcArrival},
		{At: 3 * sim.Second, Depart: 0},
	}

	return []Scenario{single, multi, noharvest, square, batch, churn}
}

// renderResult formats a Result the way report generators consume it, so
// the byte-identical claim covers rendered output, not just struct
// equality.
func renderResult(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s policy=%s mech=%s harvested=%.6f elastic=%.6f cpu=%.6f windows=%d safeguards=%d trips=%d resizes=%d\n",
		r.Scenario, r.Policy, r.Mechanism, r.AvgHarvestedCores, r.AvgElasticCores,
		r.ElasticCPUSeconds, r.Windows, r.Safeguards, r.QoSTrips, r.Resizes)
	for _, p := range r.Primaries {
		fmt.Fprintf(&b, "  %s p50=%d p99=%d p999=%d n=%d offered=%d completed=%d\n",
			p.Name, p.Latency.P50, p.Latency.P99, p.Latency.P999,
			p.Latency.Count, p.Offered, p.Completed)
	}
	fmt.Fprintf(&b, "  grow p99=%d shrink p99=%d batch=%v@%d\n",
		r.Grow.P99, r.Shrink.P99, r.BatchFinished, r.BatchTime)
	return b.String()
}

// TestRunAllDeterminism is the regression test behind RunAll's central
// claim: for identical seeds, parallel execution is byte-identical to
// serial execution. Each representative scenario runs twice serially and
// once through RunAll at parallelism 4.
func TestRunAllDeterminism(t *testing.T) {
	scenarios := representativeScenarios()

	serial1 := make([]*Result, len(scenarios))
	serial2 := make([]*Result, len(scenarios))
	for i, s := range scenarios {
		r1, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		r2, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		serial1[i], serial2[i] = r1, r2
	}

	parallel, err := RunAll(scenarios, 4)
	if err != nil {
		t.Fatal(err)
	}

	for i, s := range scenarios {
		if !reflect.DeepEqual(serial1[i], serial2[i]) {
			t.Errorf("%s: two serial runs differ — scenario is not a pure function of its seed", s.Name)
		}
		if !reflect.DeepEqual(serial1[i], parallel[i]) {
			t.Errorf("%s: parallel result differs from serial", s.Name)
		}
		if got, want := renderResult(parallel[i]), renderResult(serial1[i]); got != want {
			t.Errorf("%s: rendered output differs:\nserial:\n%s\nparallel:\n%s", s.Name, want, got)
		}
	}
}

// TestRunAllOrderAndErrors checks input-order results and per-scenario
// error capture: a failing scenario yields a nil result and a wrapped
// error naming it, without aborting its siblings.
func TestRunAllOrderAndErrors(t *testing.T) {
	good1 := Scenario{
		Name: "good1", Primaries: []apps.PrimarySpec{apps.IndexServe(200)},
		Duration: 2 * sim.Second, Warmup: sim.Second, Seed: 3,
	}
	bad := Scenario{Name: "bad-no-primaries"} // validate() rejects
	good2 := good1
	good2.Name = "good2"
	good2.Seed = 4

	results, err := RunAll([]Scenario{good1, bad, good2}, 4)
	if err == nil {
		t.Fatal("expected an error for the invalid scenario")
	}
	if !strings.Contains(err.Error(), "bad-no-primaries") || !strings.Contains(err.Error(), "scenario 1") {
		t.Fatalf("error does not identify the failing scenario: %v", err)
	}
	if results[1] != nil {
		t.Fatal("failed scenario should have a nil result")
	}
	if results[0] == nil || results[2] == nil {
		t.Fatal("sibling scenarios should still run")
	}
	if results[0].Scenario != "good1" || results[2].Scenario != "good2" {
		t.Fatalf("results out of input order: %q, %q", results[0].Scenario, results[2].Scenario)
	}
}

// TestRunAllEmptyAndSingle covers the pool's degenerate sizes.
func TestRunAllEmptyAndSingle(t *testing.T) {
	if res, err := RunAll(nil, 0); err != nil || len(res) != 0 {
		t.Fatalf("empty RunAll: %v, %v", res, err)
	}
	s := Scenario{
		Name: "solo", Primaries: []apps.PrimarySpec{apps.IndexServe(200)},
		Duration: 2 * sim.Second, Warmup: sim.Second, Seed: 5,
	}
	res, err := RunAll([]Scenario{s}, 8)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res[0], want) {
		t.Fatal("single-scenario RunAll differs from Run")
	}
}

func TestSpeedupHelpers(t *testing.T) {
	s := Scenario{
		Name: "sp", Primaries: []apps.PrimarySpec{apps.IndexServe(200)},
		Batch: BatchTeraSort, Duration: 2 * sim.Second, Warmup: sim.Second, Seed: 6,
	}
	base := BaselineScenario(s)
	if base.Name != "sp-baseline" || base.LongTermSafeguard {
		t.Fatalf("baseline scenario misconfigured: %+v", base)
	}
	results, err := RunAll([]Scenario{s, base}, 2)
	if err != nil {
		t.Fatal(err)
	}
	speedup, err := Speedup(results[0], results[1])
	if err != nil {
		t.Fatal(err)
	}
	wantSpeedup, with, baseline, err := RunSpeedup(s)
	if err != nil {
		t.Fatal(err)
	}
	if speedup != wantSpeedup {
		t.Fatalf("Speedup = %v via RunAll, %v via RunSpeedup", speedup, wantSpeedup)
	}
	if !reflect.DeepEqual(results[0], with) || !reflect.DeepEqual(results[1], baseline) {
		t.Fatal("RunAll pair differs from RunSpeedup's runs")
	}
}
