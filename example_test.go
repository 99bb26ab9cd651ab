package smartharvest_test

import (
	"fmt"

	"smartharvest"
)

// ExampleRun shows the minimal harvesting experiment: one Memcached
// primary, the default SmartHarvest policy, a CPU-hungry batch consumer.
func ExampleRun() {
	res, err := smartharvest.Run(smartharvest.Scenario{
		Name:              "example",
		Primaries:         []smartharvest.PrimarySpec{smartharvest.Memcached(40000)},
		Duration:          5 * smartharvest.Second,
		Warmup:            2 * smartharvest.Second,
		Seed:              42,
		LongTermSafeguard: true,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("policy: %s\n", res.Policy)
	fmt.Printf("served requests: %v\n", res.Primaries[0].Completed > 100000)
	fmt.Printf("harvested some cores: %v\n", res.AvgHarvestedCores > 0)
	// Output:
	// policy: smartharvest
	// served requests: true
	// harvested some cores: true
}

// ExampleCustom plugs a trivial user-defined policy into the agent: it
// always leaves half the allocation with the primaries.
func ExampleCustom() {
	half := smartharvest.Custom(func(alloc int) smartharvest.Controller {
		return halfPolicy{target: alloc / 2}
	})
	res, err := smartharvest.Run(smartharvest.Scenario{
		Name:       "custom-example",
		Primaries:  []smartharvest.PrimarySpec{smartharvest.Memcached(10000)},
		Controller: half,
		Duration:   3 * smartharvest.Second,
		Warmup:     smartharvest.Second,
		Seed:       1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("policy: %s\n", res.Policy)
	fmt.Printf("harvested about half: %v\n", res.AvgHarvestedCores > 4 && res.AvgHarvestedCores < 6)
	// Output:
	// policy: half
	// harvested about half: true
}

type halfPolicy struct{ target int }

func (h halfPolicy) Name() string                        { return "half" }
func (h halfPolicy) OnWindowEnd(smartharvest.Window) int { return h.target }
func (h halfPolicy) OnPoll(busy, cur int) (int, bool)    { return 0, false }
func (h halfPolicy) Safeguards() bool                    { return false }

// ExampleRun_observer attaches an aggregating observer to a run. The
// Metrics sink counts every event kind; a Ring or TraceWriter can be
// swapped in the same way for buffered records or a JSONL stream.
func ExampleRun_observer() {
	m := smartharvest.EventMetrics()
	res, err := smartharvest.Run(smartharvest.Scenario{
		Name:              "observed",
		Primaries:         []smartharvest.PrimarySpec{smartharvest.Memcached(40000)},
		Duration:          5 * smartharvest.Second,
		Warmup:            smartharvest.Second,
		Seed:              42,
		LongTermSafeguard: true,
		Observer:          m,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("window events match result: %v\n", m.Windows == res.Windows)
	fmt.Printf("saw poll samples: %v\n", m.Polls > 1000)
	fmt.Printf("resizes observed: %v\n", m.Resizes == res.Resizes)
	// Output:
	// window events match result: true
	// saw poll samples: true
	// resizes observed: true
}

// ExampleRunSpeedup measures how much faster a batch job finishes on
// harvested cores than on the ElasticVM's guaranteed minimum.
func ExampleRunSpeedup() {
	speedup, _, _, err := smartharvest.RunSpeedup(smartharvest.Scenario{
		Name:              "speedup-example",
		Primaries:         []smartharvest.PrimarySpec{smartharvest.Memcached(20000)},
		Batch:             smartharvest.BatchHDInsight,
		Duration:          5 * smartharvest.Second,
		Warmup:            smartharvest.Second,
		Seed:              2,
		LongTermSafeguard: true,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("batch sped up: %v\n", speedup > 1.1)
	// Output:
	// batch sped up: true
}
