// Quickstart: harvest idle cores from a Memcached VM for a CPU-hungry
// batch consumer, and check the cost: how much CPU did the ElasticVM get,
// and what happened to Memcached's tail latency?
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"smartharvest"
)

func main() {
	// First, a baseline: no harvesting at all. The ElasticVM is pinned
	// to its 1-core minimum and Memcached keeps all ten of its cores.
	baseline, err := smartharvest.Run(smartharvest.Scenario{
		Name:       "quickstart-baseline",
		Primaries:  []smartharvest.PrimarySpec{smartharvest.Memcached(40000)},
		Controller: smartharvest.NewNoHarvest(),
		Duration:   30 * smartharvest.Second,
		Warmup:     2 * smartharvest.Second,
		Seed:       42,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Now the same workload under SmartHarvest: the agent polls busy
	// cores every 50us, predicts the next 25ms window's peak demand with
	// an online cost-sensitive classifier, and lends the rest to the
	// ElasticVM.
	res, err := smartharvest.Run(smartharvest.Scenario{
		Name:              "quickstart",
		Primaries:         []smartharvest.PrimarySpec{smartharvest.Memcached(40000)},
		Duration:          30 * smartharvest.Second,
		Warmup:            2 * smartharvest.Second,
		Seed:              42,
		LongTermSafeguard: true,
	})
	if err != nil {
		log.Fatal(err)
	}

	basePC, pc := baseline.Primaries[0], res.Primaries[0]
	fmt.Printf("Memcached P99: %v -> %v (%+.1f%%)\n",
		smartharvest.Time(basePC.Latency.P99), smartharvest.Time(pc.Latency.P99),
		(float64(pc.Latency.P99)/float64(basePC.Latency.P99)-1)*100)
	fmt.Printf("Cores harvested for the batch VM: %.2f on average\n", res.AvgHarvestedCores)
	fmt.Printf("Batch CPU executed: %.1f core-seconds (vs %.1f without harvesting)\n",
		res.ElasticCPUSeconds, baseline.ElasticCPUSeconds)
	fmt.Printf("Agent activity: %d learning windows, %d resizes, %d safeguard saves\n",
		res.Windows, res.Resizes, res.Safeguards)
}
