// Multitenant: two primary VMs with very different SLOs — a
// microsecond-scale Memcached and a millisecond-scale IndexServe — share
// one cpugroup, and SmartHarvest learns their aggregate usage pattern
// (the paper's §5.4 scenario). The example compares SmartHarvest against
// a few fixed buffers and shows why no single static buffer serves both
// tenants well.
//
// Run with:
//
//	go run ./examples/multitenant
package main

import (
	"fmt"
	"log"

	"smartharvest"
)

func main() {
	primaries := []smartharvest.PrimarySpec{
		smartharvest.Memcached(40000),
		smartharvest.IndexServe(500),
	}
	run := func(name string, ctrl smartharvest.ControllerFactory) *smartharvest.Result {
		res, err := smartharvest.Run(smartharvest.Scenario{
			Name:              name,
			Primaries:         primaries,
			Controller:        ctrl,
			Duration:          30 * smartharvest.Second,
			Warmup:            2 * smartharvest.Second,
			Seed:              7,
			LongTermSafeguard: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := run("base", smartharvest.NewNoHarvest())
	fmt.Printf("%-16s %14s %14s %10s\n", "policy", "memcached P99", "indexserve P99", "harvested")
	show := func(res *smartharvest.Result) {
		fmt.Printf("%-16s %14v %14v %10.2f\n", res.Policy,
			smartharvest.Time(res.Primaries[0].Latency.P99),
			smartharvest.Time(res.Primaries[1].Latency.P99),
			res.AvgHarvestedCores)
	}
	show(base)
	show(run("sh", smartharvest.NewSmartHarvest(smartharvest.SmartHarvestOptions{})))
	for _, k := range []int{10, 8, 6} {
		show(run(fmt.Sprintf("fb%d", k), smartharvest.NewFixedBuffer(k)))
	}
	fmt.Println("\nSmall buffers harvest more but push the sub-millisecond tenant past")
	fmt.Println("its SLO; SmartHarvest adapts the buffer per window and backs off")
	fmt.Println("automatically when the aggregate pattern turns hostile.")
}
