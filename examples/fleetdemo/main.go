// Fleetdemo: run a small datacenter of independent SmartHarvest servers
// with tenant VMs arriving and departing, and compare how much batch
// capacity the fleet recovers with and without harvesting the
// allocated-but-idle cores of live tenants (the paper's motivation,
// scaled past a single server). This uses the internal cluster extension
// through the experiments surface; for programmatic access see
// internal/cluster.
//
// Run with:
//
//	go run ./examples/fleetdemo
package main

import (
	"fmt"
	"log"

	"smartharvest"
)

func main() {
	// A single-server slice of the fleet story, using the public API:
	// two tenants churn through one server while the ElasticVM soaks up
	// whatever is idle or unallocated.
	arrival := smartharvest.IndexServe(500)
	res, err := smartharvest.Run(smartharvest.Scenario{
		Name:              "fleet-slice",
		Primaries:         []smartharvest.PrimarySpec{smartharvest.Memcached(40000)},
		Duration:          30 * smartharvest.Second,
		Warmup:            2 * smartharvest.Second,
		Seed:              21,
		LongTermSafeguard: true,
		Churn: []smartharvest.ChurnEvent{
			// An IndexServe tenant arrives at t=10s...
			{At: 10 * smartharvest.Second, Depart: -1, Arrive: &arrival},
			// ...and the original Memcached tenant departs at t=20s,
			// leaving its ten cores unallocated.
			{At: 20 * smartharvest.Second, Depart: 0},
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("One server, tenants churning, ElasticVM harvesting:")
	for _, p := range res.Primaries {
		fmt.Printf("  tenant %-12s completed %8d requests, P99 %v\n",
			p.Name, p.Completed, smartharvest.Time(p.Latency.P99))
	}
	fmt.Printf("  average harvested: %.2f cores (both idle and unallocated)\n", res.AvgHarvestedCores)
	fmt.Printf("  batch executed %.1f core-seconds on a 1-core-minimum ElasticVM\n", res.ElasticCPUSeconds)
	fmt.Printf("  agent: %d resizes, %d safeguard saves, %d QoS trips\n",
		res.Resizes, res.Safeguards, res.QoSTrips)
	fmt.Println()
	fmt.Println("For the full multi-server fleet (placement, arrival streams, per-server")
	fmt.Println("stats), run: go run ./cmd/experiments fleet")
}
