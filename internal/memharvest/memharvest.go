// Package memharvest prototypes the paper's stated future work (§3.2):
// applying SmartHarvest's online-learning approach to a resource other
// than CPU cores. It simulates a server's memory being harvested from
// primary VMs for an ElasticVM, with the asymmetries the paper calls out
// as the reason memory is harder than cores:
//
//   - reclaiming a page for the primaries is slow (ballooning, copying,
//     zeroing), modeled as a per-GB reclaim latency during which the
//     primaries run short and accumulate fault time;
//   - handing memory to the ElasticVM is comparatively cheap.
//
// The policy is a core.Controller, unchanged: core.SmartHarvest over
// per-GB classes (the five window features over demand samples, the
// skewed cost function) or core.FixedBuffer's headroom rule, with
// memharvest's own conservative safeguard — demonstrating that the
// learning layer transfers unchanged even though the actuation layer is
// completely different.
package memharvest

import (
	"smartharvest/internal/core"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// TotalGB is the primaries' memory allocation in GB: the harvestable pool
// (the ElasticVM's own minimum is outside it), and so the class count of
// the controller given to Run.
const TotalGB = 64

// Each 1 s learning window (memory demand moves far slower than CPU
// demand) sees samplesPerWindow demand samples. The primaries' working
// set is a slow random walk between demandMin and demandMax GB with
// allocation surges of surgeGB, arriving at surgeRate per second.
// Returning one harvested GB to the primaries takes reclaimPerGB (balloon
// deflate + zeroing).
const (
	window               = sim.Second
	samplesPerWindow     = 20
	demandMin, demandMax = 8.0, 40.0
	surgeRate            = 0.1
	surgeGB              = 12.0
	reclaimPerGB         = 200 * sim.Millisecond
)

// Config describes one memory-harvesting run.
type Config struct {
	// Duration is the measured run length and must be positive. Warmup
	// precedes it; zero measures from t = 0.
	Duration sim.Time
	Warmup   sim.Time
	// Seed drives randomness; zero runs seed 1.
	Seed uint64
}

func (c *Config) applyDefaults() {
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// PeakFloor never assigns the primaries less than the window's peak
// demand (the CPU agent's busy+1 floor, in GB). It wraps the learned
// policy, which has always had this floor; the fixed-headroom rows never
// had it.
type PeakFloor struct{ core.Controller }

// OnWindowEnd implements core.Controller.
func (p PeakFloor) OnWindowEnd(w core.Window) int {
	return max(p.Controller.OnWindowEnd(w), w.Peak)
}

// Result summarizes a run.
type Result struct {
	// AvgHarvestedGB is the time-weighted average memory the ElasticVM
	// held.
	AvgHarvestedGB float64
	// FaultSeconds integrates (demand − available) over time whenever
	// the primaries ran short — GB-seconds of demand served from faults
	// while reclaim was in flight.
	FaultSeconds float64
	// ShortEpisodes counts the windows in which the primaries ran short.
	ShortEpisodes int
	// Reclaims counts reclaim operations.
	Reclaims int
}

// Run executes the simulation. At every window end ctrl, built for
// TotalGB classes, picks how many GB to leave with the primaries for the
// next window; it is never told of memharvest's safeguard, so a learner
// trains on every window. It panics on a Duration that is not positive.
func Run(cfg Config, ctrl core.Controller) *Result {
	if cfg.Duration <= 0 {
		panic("memharvest: Duration must be positive")
	}
	cfg.applyDefaults()
	rng := simrng.New(cfg.Seed)
	loop := sim.NewLoop()

	// Demand process state.
	demand := (demandMin + demandMax) / 2
	surgeUntil := sim.Time(0)
	sampleGap := window / samplesPerWindow

	// Assignment state.
	assigned := float64(TotalGB) // GB currently with the primaries
	reclaimDone := sim.Time(0)   // in-flight reclaim completes here
	var reclaimTarget float64

	res := &Result{}
	var harvestedIntegral, faultIntegral float64 // GB·ns
	var measuredFrom sim.Time

	samples := make([]int, 0, samplesPerWindow)
	var prevT sim.Time

	step := func(now sim.Time) {
		dt := float64(now - prevT)
		prevT = now

		// Effective memory available to the primaries: reclaim lands
		// linearly over the reclaim interval.
		avail := assigned
		if now < reclaimDone {
			remaining := float64(reclaimDone-now) / float64(reclaimPerGB)
			if gap := reclaimTarget - assigned; gap > 0 {
				got := gap - remaining
				if got < 0 {
					got = 0
				}
				avail = assigned + got
			}
		} else if reclaimTarget > assigned {
			assigned = reclaimTarget
			avail = assigned
		}

		if now >= cfg.Warmup {
			if measuredFrom == 0 {
				measuredFrom = now
			}
			harvested := float64(TotalGB) - avail
			if harvested > 0 {
				harvestedIntegral += harvested * dt
			}
			if short := demand - avail; short > 0 {
				faultIntegral += short * dt
			}
		}

		// Advance the demand random walk.
		demand += rng.Normal(0, 0.4)
		if demand < demandMin {
			demand = demandMin
		}
		if demand > demandMax {
			demand = demandMax
		}
		if rng.Bool(surgeRate * sampleGap.Seconds()) {
			surgeUntil = now + sim.Time(rng.Exp(float64(3*sim.Second)))
		}
		if now < surgeUntil {
			if d := demand + surgeGB; d <= float64(TotalGB) {
				demand = d
			} else {
				demand = float64(TotalGB)
			}
		}

		samples = append(samples, int(demand+0.5))
	}

	wasShort := false
	windowEnd := func(now sim.Time) {
		peak := 0
		for _, s := range samples {
			if s > peak {
				peak = s
			}
		}
		short := demand > assigned
		if short && now >= cfg.Warmup {
			if !wasShort {
				res.ShortEpisodes++
			}
		}
		wasShort = short

		target := ctrl.OnWindowEnd(core.Window{
			At:            now,
			Samples:       samples,
			Peak:          peak,
			CurrentTarget: int(assigned),
			Busy:          samples[len(samples)-1],
		})
		samples = samples[:0]
		if short {
			// Safeguard: reclaim up to the observed peak plus slack.
			target = peak + 2
			if target > TotalGB {
				target = TotalGB
			}
		}
		tf := float64(target)
		switch {
		case tf > assigned:
			// Reclaim is slow: schedule linear arrival.
			res.Reclaims++
			reclaimTarget = tf
			reclaimDone = now + sim.Time(float64(reclaimPerGB)*(tf-assigned))
		case tf < assigned:
			// Growing the ElasticVM is cheap and immediate.
			assigned = tf
			reclaimTarget = tf
			reclaimDone = now
		}
	}

	loop.NewTicker(sampleGap, sampleGap, func() { step(loop.Now()) })
	loop.NewTicker(window, window, func() { windowEnd(loop.Now()) })
	end := cfg.Warmup + cfg.Duration
	loop.RunUntil(end)

	span := float64(end - measuredFrom)
	if span > 0 {
		res.AvgHarvestedGB = harvestedIntegral / span
		res.FaultSeconds = faultIntegral / 1e9
	}
	return res
}
