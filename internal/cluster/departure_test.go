package cluster

import (
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/sim"
	"smartharvest/internal/workload"
)

// TestDepartedTenantStopsOfferingLoad: a departed tenant's server falls
// silent. From its departure instant its Offered count is frozen, and the
// loop stops firing its arrivals: while the server hosts nobody the fleet
// fires only its own events, where a departed Memcached(40000) that kept
// arriving would add 40 k a simulated second.
func TestDepartedTenantStopsOfferingLoad(t *testing.T) {
	f, err := NewFleet(Config{
		Servers: 1, ArrivalRate: 0.5, MeanLifetime: sim.Second,
		Duration: 8 * sim.Second, Warmup: 500 * sim.Millisecond, Seed: 3,
		Workloads:           []apps.PrimarySpec{apps.Memcached(40000)},
		DisableElasticBully: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	loop, s := f.Loop(), f.servers[0]
	frozen := map[*workload.Server]uint64{}
	var emptyFired uint64
	var emptyTime sim.Time
	for {
		at, ok := loop.Next()
		if !ok || at > f.End() {
			break
		}
		t0, fired0, empty := loop.Now(), loop.Fired(), s.Live() == 0
		loop.Step()
		if empty && len(frozen) > 0 {
			emptyFired += loop.Fired() - fired0
			emptyTime += loop.Now() - t0
		}
		for _, p := range s.Primaries {
			if _, seen := frozen[p]; !seen && p.VM().Removed() {
				frozen[p] = p.Offered()
			}
		}
		for srv, n := range frozen {
			if srv.Offered() != n {
				t.Fatalf("a departed tenant offered %d requests after its departure at %v", srv.Offered()-n, loop.Now())
			}
		}
	}
	res, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Departed == 0 || len(frozen) != res.Departed || emptyTime < 500*sim.Millisecond {
		t.Fatalf("%d departures (%d seen), %v without tenants; the scenario does not exercise departures",
			res.Departed, len(frozen), emptyTime)
	}
	rate := float64(emptyFired) / emptyTime.Seconds()
	t.Logf("%d departures; %.0f events a simulated second over %v without tenants", res.Departed, rate, emptyTime)
	if rate > 4000 {
		t.Fatalf("%.0f events a simulated second on a server whose tenants have all departed", rate)
	}
}
