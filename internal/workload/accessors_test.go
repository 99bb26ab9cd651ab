package workload

import (
	"fmt"
	"sort"

	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// Accessors and samplers that only this package's tests use.

// Epochs returns the shared burst times (read-only).
func (b *BurstSchedule) Epochs() []sim.Time { return b.epochs }

// PeakEpochs returns, for diagnostics and tests, the subset of epochs in
// [from, to) — handy for asserting cross-VM burst alignment.
func (b *BurstSchedule) PeakEpochs(from, to sim.Time) []sim.Time {
	lo := sort.Search(len(b.epochs), func(i int) bool { return b.epochs[i] >= from })
	hi := sort.Search(len(b.epochs), func(i int) bool { return b.epochs[i] >= to })
	return b.epochs[lo:hi]
}

// Mean returns the analytic mean of the mixture if both parts are
// Deterministic, else -1. Useful in tests.
func (b *Bimodal) Mean() sim.Time {
	f, okF := b.fast.(Deterministic)
	s, okS := b.slow.(Deterministic)
	if !okF || !okS {
		return -1
	}
	return sim.Time((1-b.pSlow)*float64(f) + b.pSlow*float64(s))
}

// RangeFanout fans out to a uniform number of subtasks in [Min, Max].
type RangeFanout struct {
	rng      *simrng.Rand
	Min, Max int
}

// NewRangeFanout builds a uniform fanout sampler.
func NewRangeFanout(rng *simrng.Rand, min, max int) *RangeFanout {
	if min < 1 || max < min {
		panic("workload: bad RangeFanout")
	}
	return &RangeFanout{rng: rng, Min: min, Max: max}
}

// SampleFanout implements FanoutDist.
func (r *RangeFanout) SampleFanout() int {
	return r.Min + r.rng.Intn(r.Max-r.Min+1)
}

// Uniform is a deterministic, evenly spaced arrival process.
type Uniform struct {
	gap sim.Time
}

// NewUniform returns evenly spaced arrivals at the given rate.
func NewUniform(qps float64) *Uniform {
	if qps <= 0 {
		panic(fmt.Sprintf("workload: non-positive rate %v", qps))
	}
	return &Uniform{gap: sim.Time(1e9 / qps)}
}

// Next implements Arrival.
func (u *Uniform) Next(sim.Time) (sim.Time, int) { return u.gap, 1 }
