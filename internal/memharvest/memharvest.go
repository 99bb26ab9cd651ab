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
	"fmt"

	"smartharvest/internal/core"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// Config describes one memory-harvesting run.
type Config struct {
	// TotalGB is the primaries' memory allocation in GB (the harvestable
	// pool; the ElasticVM's own minimum is outside it).
	TotalGB int
	// Window is the learning window (default 1 s — memory demand moves
	// far slower than CPU demand).
	Window sim.Time
	// SamplesPerWindow is how many demand observations feed the features
	// (default 20).
	SamplesPerWindow int
	// ReclaimPerGB is how long returning one harvested GB to the
	// primaries takes (default 200 ms: balloon deflate + zeroing).
	ReclaimPerGB sim.Time
	// Duration and Warmup bound the measured run.
	Duration sim.Time
	Warmup   sim.Time
	// Demand parameterizes the primaries' working-set process: a slow
	// random walk between DemandMin and DemandMax GB with occasional
	// surges (allocation spikes).
	DemandMin, DemandMax float64
	SurgeRate            float64 // surges per second
	SurgeGB              float64 // surge amplitude
	// Seed drives randomness.
	Seed uint64
}

func (c *Config) applyDefaults() {
	if c.TotalGB == 0 {
		c.TotalGB = 64
	}
	if c.Window == 0 {
		c.Window = sim.Second
	}
	if c.SamplesPerWindow == 0 {
		c.SamplesPerWindow = 20
	}
	if c.ReclaimPerGB == 0 {
		c.ReclaimPerGB = 200 * sim.Millisecond
	}
	if c.Duration == 0 {
		c.Duration = 120 * sim.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * sim.Second
	}
	if c.DemandMax == 0 {
		c.DemandMin, c.DemandMax = 8, 40
	}
	if c.SurgeRate == 0 {
		c.SurgeRate = 0.1
	}
	if c.SurgeGB == 0 {
		c.SurgeGB = 12
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

func (c *Config) validate() error {
	if c.TotalGB < 4 {
		return fmt.Errorf("memharvest: TotalGB %d too small", c.TotalGB)
	}
	if c.DemandMin < 0 || c.DemandMax > float64(c.TotalGB) || c.DemandMin >= c.DemandMax {
		return fmt.Errorf("memharvest: bad demand range [%v, %v]", c.DemandMin, c.DemandMax)
	}
	if c.SamplesPerWindow < 2 {
		return fmt.Errorf("memharvest: need at least 2 samples per window")
	}
	return nil
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
// cfg.TotalGB classes, picks how many GB to leave with the primaries for
// the next window; it is never told of memharvest's safeguard, so a
// learner trains on every window.
func Run(cfg Config, ctrl core.Controller) (*Result, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := simrng.New(cfg.Seed)
	loop := sim.NewLoop()

	// Demand process state.
	demand := (cfg.DemandMin + cfg.DemandMax) / 2
	surgeUntil := sim.Time(0)
	sampleGap := cfg.Window / sim.Time(cfg.SamplesPerWindow)

	// Assignment state.
	assigned := float64(cfg.TotalGB) // GB currently with the primaries
	reclaimDone := sim.Time(0)       // in-flight reclaim completes here
	var reclaimTarget float64

	res := &Result{}
	var harvestedIntegral, faultIntegral float64 // GB·ns
	var measuredFrom sim.Time

	samples := make([]int, 0, cfg.SamplesPerWindow)
	var prevT sim.Time

	step := func(now sim.Time) {
		dt := float64(now - prevT)
		prevT = now

		// Effective memory available to the primaries: reclaim lands
		// linearly over the reclaim interval.
		avail := assigned
		if now < reclaimDone {
			remaining := float64(reclaimDone-now) / float64(cfg.ReclaimPerGB)
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
			harvested := float64(cfg.TotalGB) - avail
			if harvested > 0 {
				harvestedIntegral += harvested * dt
			}
			if short := demand - avail; short > 0 {
				faultIntegral += short * dt
			}
		}

		// Advance the demand random walk.
		demand += rng.Normal(0, 0.4)
		if demand < cfg.DemandMin {
			demand = cfg.DemandMin
		}
		if demand > cfg.DemandMax {
			demand = cfg.DemandMax
		}
		if rng.Bool(cfg.SurgeRate * sampleGap.Seconds()) {
			surgeUntil = now + sim.Time(rng.Exp(float64(3*sim.Second)))
		}
		if now < surgeUntil {
			if d := demand + cfg.SurgeGB; d <= float64(cfg.TotalGB) {
				demand = d
			} else {
				demand = float64(cfg.TotalGB)
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
			if target > cfg.TotalGB {
				target = cfg.TotalGB
			}
		}
		tf := float64(target)
		switch {
		case tf > assigned:
			// Reclaim is slow: schedule linear arrival.
			res.Reclaims++
			reclaimTarget = tf
			reclaimDone = now + sim.Time(float64(cfg.ReclaimPerGB)*(tf-assigned))
		case tf < assigned:
			// Growing the ElasticVM is cheap and immediate.
			assigned = tf
			reclaimTarget = tf
			reclaimDone = now
		}
	}

	loop.NewTicker(sampleGap, sampleGap, func() { step(loop.Now()) })
	loop.NewTicker(cfg.Window, cfg.Window, func() { windowEnd(loop.Now()) })
	end := cfg.Warmup + cfg.Duration
	loop.RunUntil(end)

	span := float64(end - measuredFrom)
	if span > 0 {
		res.AvgHarvestedGB = harvestedIntegral / span
		res.FaultSeconds = faultIntegral / 1e9
	}
	return res, nil
}
