package smartharvest_test

import (
	"testing"

	"smartharvest"
	"smartharvest/internal/core"
)

func TestPublicAPIQuickstart(t *testing.T) {
	res, err := smartharvest.Run(smartharvest.Scenario{
		Name:              "api-quickstart",
		Primaries:         []smartharvest.PrimarySpec{smartharvest.Memcached(40000)},
		Duration:          4 * smartharvest.Second,
		Warmup:            2 * smartharvest.Second,
		Seed:              5,
		LongTermSafeguard: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Primaries[0].Latency.Count == 0 {
		t.Fatal("no latencies via public API")
	}
	if res.Policy != "smartharvest" {
		t.Fatalf("default policy %q", res.Policy)
	}
}

func TestPublicAPIPolicies(t *testing.T) {
	for _, f := range []smartharvest.ControllerFactory{
		smartharvest.NewSmartHarvest(smartharvest.SmartHarvestOptions{}),
		smartharvest.NewFixedBuffer(4),
		smartharvest.NewPrevPeak(10, true),
		smartharvest.NewNoHarvest(),
		smartharvest.NewEWMA(0.3, 1),
	} {
		if f(10) == nil {
			t.Fatal("factory returned nil controller")
		}
	}
}

// staticPolicy is a trivial custom policy: always leave a fixed number of
// cores with the primaries.
type staticPolicy struct{ target int }

func (p staticPolicy) Name() string                        { return "static" }
func (p staticPolicy) OnWindowEnd(smartharvest.Window) int { return p.target }
func (p staticPolicy) OnPoll(busy, cur int) (int, bool)    { return 0, false }
func (p staticPolicy) Safeguards() bool                    { return false }

func TestPublicAPICustomController(t *testing.T) {
	res, err := smartharvest.Run(smartharvest.Scenario{
		Name:       "custom",
		Primaries:  []smartharvest.PrimarySpec{smartharvest.Memcached(10000)},
		Controller: smartharvest.Custom(func(alloc int) smartharvest.Controller { return staticPolicy{target: alloc - 3} }),
		Duration:   3 * smartharvest.Second,
		Warmup:     smartharvest.Second,
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "static" {
		t.Fatalf("policy %q", res.Policy)
	}
	// Static target of alloc-3 leaves 3 harvested cores (+ the minimum).
	if res.AvgHarvestedCores < 2.5 || res.AvgHarvestedCores > 3.1 {
		t.Fatalf("harvested %v, want ~3", res.AvgHarvestedCores)
	}
}

func TestPublicAPISpeedup(t *testing.T) {
	s := smartharvest.Scenario{
		Name:      "speedup",
		Primaries: []smartharvest.PrimarySpec{smartharvest.Moses(400)},
		Batch:     smartharvest.BatchHDInsight,
		Duration:  6 * smartharvest.Second,
		Warmup:    smartharvest.Second,
		Seed:      3,
		Controller: smartharvest.NewSmartHarvest(smartharvest.SmartHarvestOptions{
			Safeguard: smartharvest.ConservativeSafeguard,
		}),
	}
	speedup, _, _, err := smartharvest.RunSpeedup(s)
	if err != nil {
		t.Fatal(err)
	}
	if speedup <= 1 {
		t.Fatalf("speedup %v", speedup)
	}
}

// Interface compatibility: the exported aliases must be the internal
// types so custom controllers interoperate.
var _ core.Controller = staticPolicy{}
