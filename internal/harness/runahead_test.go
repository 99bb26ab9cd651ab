package harness

import (
	"reflect"
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/core"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// Poll run-ahead has no switch, but an attached observer turns it off (the
// observer is owed every PollSample), and a NopObserver changes nothing
// else. So the same scenario run with a nil observer (run-ahead on) and
// with obs.NopObserver{} (every poll a real event) must produce the same
// Result, poll accounting aside.

// runAheadShapes covers the quick suite's scenario shapes: each primary
// workload, several primaries in one group, both reassignment mechanisms,
// every controller, a finite batch job that outlives the measured run,
// series and busy-stats collection, and tenant churn.
func runAheadShapes() []Scenario {
	shape := func(name string, primaries ...apps.PrimarySpec) Scenario {
		return Scenario{
			Name:      name,
			Primaries: primaries,
			Duration:  1500 * sim.Millisecond,
			Warmup:    300 * sim.Millisecond,
			Seed:      7,
		}
	}
	with := func(s Scenario, mut func(*Scenario)) Scenario { mut(&s); return s }
	arrival := apps.Memcached(20000)

	return []Scenario{
		shape("memcached", apps.Memcached(40000)),
		shape("memcached-swing", apps.MemcachedSwinging(20000)),
		shape("indexserve", apps.IndexServe(500)),
		shape("moses", apps.Moses(400)),
		shape("imgdnn", apps.ImgDNN(2000)),
		shape("squarewave", apps.SquareWave(8, 1, 200*sim.Millisecond)),
		shape("varying-load", apps.MemcachedVaryingLoad([]float64{10000, 60000}, 400*sim.Millisecond)),
		shape("multi-primary", apps.Memcached(40000), apps.IndexServe(500)),
		with(shape("ipi", apps.IndexServe(500)), func(s *Scenario) { s.Mechanism = hypervisor.IPI }),
		with(shape("ipi-fixedbuffer", apps.Moses(400)), func(s *Scenario) {
			s.Mechanism = hypervisor.IPI
			s.Controller = FixedBufferFactory(2)
		}),
		with(shape("fixedbuffer", apps.IndexServe(500)), func(s *Scenario) { s.Controller = FixedBufferFactory(4) }),
		with(shape("prevpeak", apps.Moses(400)), func(s *Scenario) { s.Controller = PrevPeakFactory(1, false) }),
		with(shape("prevpeak10", apps.IndexServe(500)), func(s *Scenario) { s.Controller = PrevPeakFactory(10, true) }),
		with(shape("ewma", apps.ImgDNN(2000)), func(s *Scenario) { s.Controller = EWMAFactory(0.3, 2) }),
		with(shape("noharvest", apps.IndexServe(500)), func(s *Scenario) { s.Controller = NoHarvestFactory() }),
		with(shape("no-long-term-safeguard", apps.SquareWave(9, 1, 150*sim.Millisecond)), func(s *Scenario) {
			s.Controller = SmartHarvestFactory(core.SmartHarvestOptions{})
		}),
		with(shape("terasort", apps.IndexServe(500)), func(s *Scenario) { s.Batch = BatchTeraSort }),
		with(shape("finite", apps.Moses(400)), func(s *Scenario) {
			s.Batch = BatchFinite
			s.BatchWork = 20 * sim.Second
		}),
		with(shape("series", apps.SquareWave(8, 1, 250*sim.Millisecond)), func(s *Scenario) {
			s.RecordSeries = true
			s.Controller = PrevPeakFactory(1, false)
		}),
		with(shape("busy-stats", apps.IndexServe(500)), func(s *Scenario) { s.CollectBusyStats = true }),
		with(shape("churn", apps.IndexServe(500), apps.Moses(400)), func(s *Scenario) {
			s.Churn = []ChurnEvent{
				{At: 600 * sim.Millisecond, Depart: 1},
				{At: 900*sim.Millisecond + 17, Depart: -1, Arrive: &arrival},
				{At: 1400 * sim.Millisecond, Depart: 0},
			}
		}),
	}
}

// runBothWays runs s with run-ahead on (nil observer) and off.
func runBothWays(t *testing.T, s Scenario) (on, off *Result) {
	t.Helper()
	on, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	off, err = Run(s, WithObserver(obs.NopObserver{}))
	if err != nil {
		t.Fatal(err)
	}
	if off.PollsSkipped != 0 {
		t.Fatalf("observed run skipped %d polls", off.PollsSkipped)
	}
	if on.Polls+on.PollsSkipped != off.Polls {
		t.Errorf("run-ahead accounts for %d+%d poll instants, the poll-by-poll run fired %d",
			on.Polls, on.PollsSkipped, off.Polls)
	}
	if on.Events+on.PollsSkipped != off.Events {
		t.Errorf("run-ahead fired %d events and skipped %d polls, the poll-by-poll run fired %d events",
			on.Events, on.PollsSkipped, off.Events)
	}
	if a, b := withoutPolls(on), withoutPolls(off); !reflect.DeepEqual(a, b) {
		t.Errorf("results differ with run-ahead on and off:\n on  %s off %s", renderResult(&a), renderResult(&b))
	}
	return on, off
}

// withoutPolls is r less the poll and event accounting, the one thing
// run-ahead is allowed to change.
func withoutPolls(r *Result) Result {
	c := *r
	c.Polls, c.PollsSkipped, c.Events = 0, 0, 0
	return c
}

func TestRunAheadOnOffEquivalence(t *testing.T) {
	for _, s := range runAheadShapes() {
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			if on, _ := runBothWays(t, s); on.PollsSkipped == 0 {
				t.Error("no poll skipped; the scenario does not exercise run-ahead")
			}
		})
	}
}

// An agent-fault plan routes polls through the injector, whose adapter
// does not carry the marker: both sides fire every poll, and the fault
// schedule (one RNG draw a poll) is untouched.
func TestRunAheadOffUnderAgentFaults(t *testing.T) {
	s := short("runahead-chaos", apps.IndexServe(500))
	s.Duration = 2 * sim.Second
	s.Faults = chaosPlan()
	on, _ := runBothWays(t, s)
	if on.PollsSkipped != 0 {
		t.Fatalf("faulty run skipped %d polls", on.PollsSkipped)
	}
	if on.FaultsInjected == 0 || on.MissedPolls == 0 {
		t.Fatalf("plan injected %d faults, %d lost polls; the comparison is too weak", on.FaultsInjected, on.MissedPolls)
	}
}

// TestPollAccountingPinned pins the poll instants of one scenario to the
// count the commit before run-ahead fired for it (taken there from an
// obs.Metrics sink's poll total): 8 s of 50 µs polls, less the time the
// agent spends blocked in resizes.
func TestPollAccountingPinned(t *testing.T) {
	const parentPolls = 156760
	res, err := Run(short("runahead-pinned", apps.IndexServe(500)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Polls+res.PollsSkipped != parentPolls {
		t.Fatalf("%d polls fired + %d skipped = %d, want %d",
			res.Polls, res.PollsSkipped, res.Polls+res.PollsSkipped, parentPolls)
	}
	if res.PollsSkipped < 2*res.Polls {
		t.Errorf("only %d of %d poll instants skipped on a 500 req/s primary", res.PollsSkipped, parentPolls)
	}
}
