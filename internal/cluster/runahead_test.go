package cluster

import (
	"reflect"
	"testing"

	"smartharvest/internal/faults"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// TestFleetRunAheadOnOffEquivalence: a 4-server fleet under a server-crash
// plan gives the same Result whether its agents run their polls ahead
// (nil agent observer, as NewFleet builds them) or fire every one of them
// (obs.NopObserver{}). On a shared loop another agent's next poll is at
// most one interval away, so polls are skipped only while every other
// agent is blocked in a resize or down — rarely, but it happens, and the
// poll instants still add up.
func TestFleetRunAheadOnOffEquivalence(t *testing.T) {
	plan, err := faults.ParsePlan("scrash=0.02,srestartdur=300ms")
	if err != nil {
		t.Fatal(err)
	}
	run := func(agentObserver obs.Observer) (res *Result, polls, skipped uint64) {
		f, err := newFleet(Config{
			Servers: 4, ArrivalRate: 0.8, MeanLifetime: 5 * sim.Second,
			Duration: 8 * sim.Second, Warmup: sim.Second, Seed: 9,
			Faults: plan,
		}, agentObserver)
		if err != nil {
			t.Fatal(err)
		}
		res, err = f.Finish()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range f.servers {
			polls += s.agent.Stats().Polls
			skipped += s.agent.Stats().PollsSkipped
		}
		return res, polls, skipped
	}
	on, polls, skipped := run(nil)
	off, want, offSkipped := run(obs.NopObserver{})
	if on.FaultsInjected == 0 || on.Placed == 0 {
		t.Fatalf("%d faults injected, %d tenants placed; the comparison is too weak", on.FaultsInjected, on.Placed)
	}
	if !reflect.DeepEqual(on, off) {
		t.Errorf("fleet results differ with run-ahead on and off:\n on  %+v\n off %+v", on, off)
	}
	if offSkipped != 0 || skipped == 0 || polls+skipped != want {
		t.Errorf("polls %d fired + %d skipped with run-ahead, %d fired + %d skipped without",
			polls, skipped, want, offSkipped)
	}
}
