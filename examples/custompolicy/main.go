// Custompolicy: plug your own harvesting policy into the EVMAgent by
// implementing the Controller interface. This example builds a
// "quantile tracker": instead of learning a model it keeps a trailing
// window of observed peaks and allocates their 95th percentile plus one
// core — a middle ground between PrevPeak (too twitchy) and PrevPeak10
// (too sticky) — and races it against the paper's learner.
//
// Run with:
//
//	go run ./examples/custompolicy
package main

import (
	"fmt"
	"log"
	"sort"

	"smartharvest"
)

// quantileTracker allocates the q-quantile of the last n window peaks,
// plus a one-core guard band.
type quantileTracker struct {
	alloc int
	n     int
	q     float64
	peaks []int
}

func newQuantileTracker(alloc int) *quantileTracker {
	return &quantileTracker{alloc: alloc, n: 40, q: 0.95}
}

// Name implements smartharvest.Controller.
func (t *quantileTracker) Name() string { return "quantile-tracker" }

// Safeguards opts in to the agent's short-term safeguard.
func (t *quantileTracker) Safeguards() bool { return true }

// OnPoll implements smartharvest.Controller; this policy only acts at
// window boundaries.
func (t *quantileTracker) OnPoll(busy, currentTarget int) (int, bool) { return 0, false }

// OnWindowEnd implements smartharvest.Controller.
func (t *quantileTracker) OnWindowEnd(w smartharvest.Window) int {
	if w.Safeguard {
		// The observed peak is censored; fall back to the trailing
		// 1-second peak like the paper's conservative safeguard.
		if p := w.Peak1s + 1; p < t.alloc {
			return p
		}
		return t.alloc
	}
	t.peaks = append(t.peaks, w.Peak)
	if len(t.peaks) > t.n {
		t.peaks = t.peaks[len(t.peaks)-t.n:]
	}
	s := append([]int(nil), t.peaks...)
	sort.Ints(s)
	idx := int(t.q * float64(len(s)-1))
	target := s[idx] + 1
	if target > t.alloc {
		target = t.alloc
	}
	return target
}

func main() {
	primaries := []smartharvest.PrimarySpec{smartharvest.ImgDNN(2000)}
	run := func(name string, ctrl smartharvest.ControllerFactory) *smartharvest.Result {
		res, err := smartharvest.Run(smartharvest.Scenario{
			Name:       name,
			Primaries:  primaries,
			Controller: ctrl,
			Duration:   30 * smartharvest.Second,
			Warmup:     2 * smartharvest.Second,
			Seed:       3,
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	base := run("base", smartharvest.NewNoHarvest())
	custom := run("custom", smartharvest.Custom(func(alloc int) smartharvest.Controller {
		return newQuantileTracker(alloc)
	}))
	paper := run("paper", smartharvest.NewSmartHarvest(smartharvest.SmartHarvestOptions{}))

	fmt.Printf("%-18s %12s %8s %10s\n", "policy", "img-dnn P99", "vs base", "harvested")
	show := func(res *smartharvest.Result) {
		fmt.Printf("%-18s %12v %+7.0f%% %10.2f\n", res.Policy,
			smartharvest.Time(res.Primaries[0].Latency.P99),
			(float64(res.Primaries[0].Latency.P99)/float64(base.Primaries[0].Latency.P99)-1)*100,
			res.AvgHarvestedCores)
	}
	show(base)
	show(custom)
	show(paper)
}
