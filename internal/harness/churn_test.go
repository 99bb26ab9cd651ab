package harness

import (
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/sim"
)

func TestChurnDeparture(t *testing.T) {
	// One of two Memcacheds departs mid-run: its ten cores become
	// unallocated and the harvest should jump accordingly.
	mc := apps.Memcached(40000)
	s := Scenario{
		Name:      "churn-depart",
		Primaries: []apps.PrimarySpec{mc, mc},
		Duration:  8 * sim.Second,
		Warmup:    2 * sim.Second,
		Seed:      5,
		Churn: []ChurnEvent{
			{At: 6 * sim.Second, Depart: 1},
		},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// After departure the ~10 freed cores flow to the ElasticVM: the
	// average over [2s, 10s] must reflect the 4 seconds at ~10+ extra
	// cores (>= ~5 on average).
	if res.AvgHarvestedCores < 4 {
		t.Fatalf("harvested %v; departed tenant's cores not reclaimed", res.AvgHarvestedCores)
	}
	// The departed VM's server stops completing work but its recorded
	// latencies survive.
	if res.Primaries[1].Latency.Count == 0 {
		t.Fatal("departed primary lost its latency record")
	}
}

// TestChurnDepartedPrimaryStopsOffering: a churned-out primary falls
// silent at its departure. Its arrivals draw from their own stream, so its
// Offered count equals that of the same primary in a run that simply ends
// at the departure instant, while the primary that stays keeps offering.
func TestChurnDepartedPrimaryStopsOffering(t *testing.T) {
	mc := apps.Memcached(40000)
	base := Scenario{
		Name:      "churn-silent",
		Primaries: []apps.PrimarySpec{mc, mc},
		Warmup:    sim.Second,
		Seed:      5,
	}
	churned, cut := base, base
	churned.Duration = 3 * sim.Second
	churned.Churn = []ChurnEvent{{At: 2 * sim.Second, Depart: 1}}
	cut.Duration = sim.Second // ends at the departure instant
	res, err := Run(churned)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Run(cut)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Primaries[1].Offered, ref.Primaries[1].Offered; got != want {
		t.Fatalf("departed primary offered %d requests, %d of them after its departure", got, int64(got)-int64(want))
	}
	if res.Primaries[0].Offered < ref.Primaries[0].Offered*14/10 {
		t.Fatalf("the staying primary offered %d requests over 4 s, %d over the first 2 s",
			res.Primaries[0].Offered, ref.Primaries[0].Offered)
	}
}

func TestChurnArrival(t *testing.T) {
	// A second Memcached arrives mid-run: before it arrives its cores
	// are unallocated (harvested); afterwards the agent must honor the
	// larger allocation.
	mc := apps.Memcached(40000)
	arrival := apps.Memcached(40000)
	s := Scenario{
		Name:      "churn-arrive",
		Primaries: []apps.PrimarySpec{mc},
		Duration:  8 * sim.Second,
		Warmup:    2 * sim.Second,
		Seed:      5,
		Churn: []ChurnEvent{
			{At: 6 * sim.Second, Depart: -1, Arrive: &arrival},
		},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Primaries) != 2 {
		t.Fatalf("expected 2 primaries in results, got %d", len(res.Primaries))
	}
	// The arrival's server must have run: it serves the last 4 seconds.
	if res.Primaries[1].Completed < 100000 {
		t.Fatalf("arrival completed only %d requests", res.Primaries[1].Completed)
	}
	// Before the arrival, 10 of 21 cores were unallocated -> harvested.
	if res.AvgHarvestedCores < 3 {
		t.Fatalf("harvested %v; unallocated cores not used before arrival", res.AvgHarvestedCores)
	}
}

func TestChurnArrivalTailProtected(t *testing.T) {
	// The newly arrived tenant's own tail latency must be protected once
	// it lands, even though its cores were harvested moments before.
	mc := apps.Memcached(40000)
	arrival := apps.Memcached(40000)
	s := Scenario{
		Name:      "churn-protect",
		Primaries: []apps.PrimarySpec{mc},
		Duration:  10 * sim.Second,
		Warmup:    2 * sim.Second,
		Seed:      9,
		Churn: []ChurnEvent{
			{At: 4 * sim.Second, Depart: -1, Arrive: &arrival},
		},
	}
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the arrival's P99 with the resident's: same workload, so
	// they should be in the same ballpark once the agent adapts.
	resident := float64(res.Primaries[0].Latency.P99)
	arrived := float64(res.Primaries[1].Latency.P99)
	if arrived > resident*3 {
		t.Fatalf("arrival P99 %v vs resident %v; agent did not adapt to the new tenant",
			sim.Time(int64(arrived)), sim.Time(int64(resident)))
	}
}

func TestChurnValidation(t *testing.T) {
	mc := apps.Memcached(1000)
	bad := []Scenario{
		{
			Name: "depart-everything", Primaries: []apps.PrimarySpec{mc},
			Churn: []ChurnEvent{{At: sim.Second, Depart: 0}},
		},
		{
			Name: "depart-oob", Primaries: []apps.PrimarySpec{mc, mc},
			Churn: []ChurnEvent{{At: sim.Second, Depart: 7}},
		},
	}
	for _, s := range bad {
		s.Duration = 3 * sim.Second
		s.Warmup = sim.Second
		if _, err := Run(s); err == nil {
			t.Errorf("scenario %q accepted", s.Name)
		}
	}
}
