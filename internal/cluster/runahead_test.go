package cluster

import (
	"reflect"
	"slices"
	"testing"

	"smartharvest/internal/faults"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// TestFleetRunAheadOnOffEquivalence: a 4-server fleet under a server-crash
// plan gives the same Result, less its poll accounting, whether its agents
// run their polls ahead (nil agent observer, as NewFleet builds them) or
// fire every one of them (obs.NopObserver{}). On a shared loop another
// agent's next poll is at most one interval away, so polls are skipped
// only while every other agent is blocked in a resize or down — rarely,
// but it happens, and each server's poll instants still add up.
func TestFleetRunAheadOnOffEquivalence(t *testing.T) {
	plan, err := faults.ParsePlan("scrash=0.02,srestartdur=300ms")
	if err != nil {
		t.Fatal(err)
	}
	run := func(agentObserver obs.Observer) *Result {
		f, err := newFleet(Config{
			Servers: 4, ArrivalRate: 0.8, MeanLifetime: 5 * sim.Second,
			Duration: 8 * sim.Second, Warmup: sim.Second, Seed: 9,
			Faults: plan,
		}, agentObserver)
		if err != nil {
			t.Fatal(err)
		}
		res, err := f.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	on, off := run(nil), run(obs.NopObserver{})
	if on.FaultsInjected == 0 || on.Placed == 0 {
		t.Fatalf("%d faults injected, %d tenants placed; the comparison is too weak", on.FaultsInjected, on.Placed)
	}
	if a, b := withoutPolls(on), withoutPolls(off); !reflect.DeepEqual(a, b) {
		t.Errorf("fleet results differ with run-ahead on and off:\n on  %+v\n off %+v", a, b)
	}
	var fired, skipped uint64
	for i, s := range on.PerServer {
		o := off.PerServer[i]
		if o.PollsSkipped != 0 || s.Polls+s.PollsSkipped != o.Polls {
			t.Errorf("server %d: polls %d fired + %d skipped with run-ahead, %d fired + %d skipped without",
				i, s.Polls, s.PollsSkipped, o.Polls, o.PollsSkipped)
		}
		fired += s.Polls
		skipped += s.PollsSkipped
	}
	if skipped == 0 {
		t.Error("no poll skipped; the fleet does not exercise run-ahead")
	}
	t.Logf("run-ahead skipped %d of %d poll instants (%.2f %%)",
		skipped, fired+skipped, 100*float64(skipped)/float64(fired+skipped))
}

// withoutPolls is r less each server's poll accounting, the one thing
// run-ahead is allowed to change.
func withoutPolls(r *Result) Result {
	c := *r
	c.PerServer = slices.Clone(r.PerServer)
	for i := range c.PerServer {
		c.PerServer[i].Polls, c.PerServer[i].PollsSkipped = 0, 0
	}
	return c
}
