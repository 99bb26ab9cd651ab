package harness_test

import (
	"slices"
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/cluster"
	"smartharvest/internal/faults"
	"smartharvest/internal/harness"
	"smartharvest/internal/sim"
)

// chaosAgentPlan is the chaos experiment's ×1 agent fault plan
// (internal/experiments/chaos.go).
var chaosAgentPlan = faults.Plan{
	HypercallFailProb:  0.05,
	HypercallDelayProb: 0.05,
	PollDropProb:       0.001,
	PollStaleProb:      0.002,
	PollNoiseProb:      0.01,
	StallProb:          0.005,
	CrashProb:          0.001,
}

// counters is every counter a single-server Result carries.
type counters struct {
	Windows, Safeguards, QoSTrips, Resizes      uint64
	Polls, PollsSkipped, Events, FaultsInjected uint64
	ResizeRetries, ResizeFailures               uint64
	ResizesAborted, MissedPolls, MissedWindows  uint64
	Stalls, Crashes, Degradations               uint64
	Degraded                                    bool
}

func countersOf(r *harness.Result) counters {
	return counters{
		Windows: r.Windows, Safeguards: r.Safeguards, QoSTrips: r.QoSTrips, Resizes: r.Resizes,
		Polls: r.Polls, PollsSkipped: r.PollsSkipped, Events: r.Events, FaultsInjected: r.FaultsInjected,
		ResizeRetries: r.ResizeRetries, ResizeFailures: r.ResizeFailures,
		ResizesAborted: r.ResizesAborted, MissedPolls: r.MissedPolls, MissedWindows: r.MissedWindows,
		Stalls: r.Stalls, Crashes: r.Crashes, Degradations: r.Degradations,
		Degraded: r.Degraded,
	}
}

// TestResultCountersPinned pins every agent, loop and injector counter of
// two short runs, one fault-free (run-ahead skips polls, one QoS trip) and
// one under the chaos experiment's plan at its heavy ×4 intensity
// (failures, retries, an aborted resize, missed polls and windows, stalls
// and a crash), plus the per-server safeguard and QoS-trip counts of a
// fleet under the ×1 plan. The experiment goldens print only some of
// these; the rest are pinned nowhere else.
func TestResultCountersPinned(t *testing.T) {
	for _, c := range []struct {
		primary apps.PrimarySpec
		scale   float64
		want    counters
	}{
		{apps.IndexServe(500), 0, counters{
			Windows: 215, Safeguards: 5, QoSTrips: 1, Resizes: 16,
			Polls: 16753, PollsSkipped: 90007, Events: 37033,
		}},
		{apps.Memcached(40000), 4, counters{
			Windows: 186, Safeguards: 38, Resizes: 84,
			Polls: 83681, Events: 526820, FaultsInjected: 4426,
			ResizeRetries: 19, ResizeFailures: 20, ResizesAborted: 1,
			MissedPolls: 316, MissedWindows: 14, Stalls: 2, Crashes: 1,
		}},
	} {
		res, err := harness.Run(harness.Scenario{
			Name: "pin", Primaries: []apps.PrimarySpec{c.primary},
			Duration: 5 * sim.Second, Warmup: 500 * sim.Millisecond, Seed: 7, LongTermSafeguard: true,
			Faults: chaosAgentPlan.Scale(c.scale),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := countersOf(res); got != c.want {
			t.Errorf("%s at fault scale %v:\n got  %+v\n want %+v", c.primary.Name, c.scale, got, c.want)
		}
	}

	res, err := cluster.Run(cluster.Config{
		Servers: 3, ArrivalRate: 2, MeanLifetime: 5 * sim.Second,
		Duration: 4 * sim.Second, Warmup: sim.Second, Seed: 5,
		Faults: chaosAgentPlan,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got [][2]uint64
	for _, s := range res.PerServer {
		got = append(got, [2]uint64{s.Safeguards, s.QoSTrips})
	}
	if want := [][2]uint64{{10, 1}, {9, 1}, {2, 1}}; !slices.Equal(got, want) {
		t.Errorf("fleet per-server [safeguards qos-trips] %v, want %v", got, want)
	}
}
