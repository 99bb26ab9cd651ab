package sched

import (
	"runtime"
	"testing"
	"time"

	"smartharvest/internal/apps"
	"smartharvest/internal/cluster"
	"smartharvest/internal/harness"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// goroutinePeak samples the goroutine count at every event it sees.
type goroutinePeak struct {
	obs.Adapter
	peak int
}

func newGoroutinePeak() *goroutinePeak {
	g := &goroutinePeak{}
	g.Sink = g
	return g
}

func (g *goroutinePeak) Observe(*obs.Record) { g.peak = max(g.peak, runtime.NumGoroutine()) }

// settle waits for the goroutine count to come back to base, and fails if
// it does not: a primary's input producer was left running.
func settle(t *testing.T, what string, base int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s left %d goroutines running", what, runtime.NumGoroutine()-base)
		}
	}
}

// TestRunsStopTheirInputProducers: with a second processor, a 40 k req/s
// primary draws its input on a producer goroutine (workload's input
// pipeline); every run entry point stops them all before returning.
func TestRunsStopTheirInputProducers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	fleet := cluster.Config{
		Servers: 2, ArrivalRate: 8, MeanLifetime: 3 * sim.Second,
		Duration: 2 * sim.Second, Warmup: 500 * sim.Millisecond, Seed: 5,
		Workloads: []apps.PrimarySpec{apps.Memcached(40000)},
	}

	base := runtime.NumGoroutine()
	peak := newGoroutinePeak()
	if _, err := harness.Run(harness.Scenario{
		Name: "leak", Primaries: []apps.PrimarySpec{apps.Memcached(40000), apps.Memcached(20000)},
		Duration: sim.Second, Warmup: 200 * sim.Millisecond, Seed: 1, Observer: peak,
	}); err != nil {
		t.Fatal(err)
	}
	if peak.peak <= base {
		t.Fatal("harness.Run: no primary drew its input ahead, so nothing is tested")
	}
	settle(t, "harness.Run", base)

	if _, err := cluster.Run(fleet); err != nil {
		t.Fatal(err)
	}
	settle(t, "cluster.Run", base)

	peak = newGoroutinePeak()
	fleet.Observer = peak
	if _, err := Run(Config{Fleet: fleet, Policy: BestFit, ArrivalRate: 20,
		Jobs: []JobSpec{{Work: 100 * sim.Millisecond, Width: 2}}}); err != nil {
		t.Fatal(err)
	}
	if peak.peak <= base {
		t.Fatal("sched.Run: no tenant drew its input ahead, so nothing is tested")
	}
	settle(t, "sched.Run", base)
}
