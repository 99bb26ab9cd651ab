package memharvest

import (
	"testing"

	"smartharvest/internal/core"
	"smartharvest/internal/learner"
	"smartharvest/internal/sim"
)

// learned is the experiment's learned row: core.SmartHarvest over per-GB
// classes, floored at the window peak.
func learned() core.Controller {
	return PeakFloor{core.NewSmartHarvest(TotalGB, core.SmartHarvestOptions{
		Cost: learner.SkewedCost{UnderPenalty: TotalGB / 4}})}
}

func fixed(k int) core.Controller { return core.NewFixedBuffer(TotalGB, k) }

func run(ctrl core.Controller, seed uint64) *Result { return Run(Config{Seed: seed}, ctrl) }

func TestLearnedHarvestsMemory(t *testing.T) {
	res := run(learned(), 3)
	// Demand averages ~24 GB of 64 plus a safety margin; a meaningful
	// chunk must be harvested.
	if res.AvgHarvestedGB < 10 {
		t.Fatalf("harvested %v GB", res.AvgHarvestedGB)
	}
	if res.AvgHarvestedGB > 50 {
		t.Fatalf("harvested %v GB; implausibly aggressive", res.AvgHarvestedGB)
	}
}

func TestLearnedBeatsNaiveHeadroomOnFrontier(t *testing.T) {
	learned := run(learned(), 3)
	// A small fixed headroom harvests more but faults much more; a big
	// one faults less but harvests much less. The learner should not be
	// dominated by either (same or better on one axis when matched on
	// the other).
	small := run(fixed(2), 3)
	big := run(fixed(24), 3)
	if small.FaultSeconds <= learned.FaultSeconds && small.AvgHarvestedGB >= learned.AvgHarvestedGB {
		t.Fatalf("learned dominated by fixed-2: learned=%+v fixed=%+v", learned, small)
	}
	if big.FaultSeconds <= learned.FaultSeconds && big.AvgHarvestedGB >= learned.AvgHarvestedGB {
		t.Fatalf("learned dominated by fixed-24: learned=%+v fixed=%+v", learned, big)
	}
}

func TestFixedHeadroomTradeoff(t *testing.T) {
	small := run(fixed(2), 5)
	big := run(fixed(20), 5)
	if small.AvgHarvestedGB <= big.AvgHarvestedGB {
		t.Fatalf("small headroom harvested %v <= big %v", small.AvgHarvestedGB, big.AvgHarvestedGB)
	}
	if small.FaultSeconds < big.FaultSeconds {
		t.Fatalf("small headroom faulted less (%v) than big (%v)", small.FaultSeconds, big.FaultSeconds)
	}
}

func TestDeterminism(t *testing.T) {
	a := run(learned(), 11)
	b := run(learned(), 11)
	if *a != *b {
		t.Fatalf("runs diverged: %+v vs %+v", a, b)
	}
}

func TestPeakFloor(t *testing.T) {
	// A fixed buffer of 0 over a falling window assigns its last sample;
	// the floor lifts that to the window's peak.
	w := core.Window{Samples: []int{9, 4}, Peak: 9, Busy: 4, CurrentTarget: 64}
	if got := fixed(0).OnWindowEnd(w); got != 4 {
		t.Fatalf("unfloored target %d, want 4", got)
	}
	if got := (PeakFloor{fixed(0)}).OnWindowEnd(w); got != 9 {
		t.Fatalf("floored target %d, want 9", got)
	}
}

func TestReclaimLatencyMatters(t *testing.T) {
	// With instant reclaim, faults should drop sharply versus slow
	// reclaim under the same policy and demand.
	slowCfg := Config{Seed: 9, ReclaimPerGB: 500 * sim.Millisecond}
	fastCfg := Config{Seed: 9, ReclaimPerGB: sim.Millisecond}
	slow, fast := Run(slowCfg, fixed(4)), Run(fastCfg, fixed(4))
	if fast.FaultSeconds >= slow.FaultSeconds {
		t.Fatalf("fast reclaim faulted %v >= slow %v", fast.FaultSeconds, slow.FaultSeconds)
	}
}
