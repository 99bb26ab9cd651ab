// Batchspeedup: run realistic batch jobs — an iterative ML-training job
// and a TeraSort-style phased job — on harvested cores next to a live
// IndexServe, and measure how much faster they finish than on the
// ElasticVM's guaranteed single core (the paper's Figure 6).
//
// Run with:
//
//	go run ./examples/batchspeedup
package main

import (
	"fmt"
	"log"

	"smartharvest"
)

func main() {
	for _, batch := range []smartharvest.BatchKind{
		smartharvest.BatchHDInsight,
		smartharvest.BatchTeraSort,
	} {
		s := smartharvest.Scenario{
			Name:      fmt.Sprintf("speedup-%v", batch),
			Primaries: []smartharvest.PrimarySpec{smartharvest.IndexServe(500)},
			Batch:     batch,
			Duration:  20 * smartharvest.Second,
			Warmup:    2 * smartharvest.Second,
			Seed:      11,
			Controller: smartharvest.NewSmartHarvest(
				smartharvest.SmartHarvestOptions{}),
		}
		speedup, with, baseline, err := smartharvest.RunSpeedup(s)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%v: finished in %v on harvested cores vs %v on 1 core -> %.2fx speedup\n",
			batch, with.BatchTime, baseline.BatchTime, speedup)
		fmt.Printf("  IndexServe P99 meanwhile: %v (harvesting) vs %v (baseline)\n",
			smartharvest.Time(with.Primaries[0].Latency.P99),
			smartharvest.Time(baseline.Primaries[0].Latency.P99))
		fmt.Printf("  average harvested cores: %.2f\n\n", with.AvgHarvestedCores)
	}
}
