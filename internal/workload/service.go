package workload

import (
	"fmt"

	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// ServiceDist samples per-request (or per-subtask) CPU service demand.
type ServiceDist interface {
	Sample() sim.Time
}

// Deterministic always returns the same service time.
type Deterministic sim.Time

// Sample implements ServiceDist.
func (d Deterministic) Sample() sim.Time { return sim.Time(d) }

// ExpService is exponentially distributed service demand.
type ExpService struct {
	rng  *simrng.Rand
	mean float64
}

// NewExpService returns exponential service with the given mean.
func NewExpService(rng *simrng.Rand, mean sim.Time) *ExpService {
	if mean <= 0 {
		panic("workload: non-positive service mean")
	}
	return &ExpService{rng: rng, mean: float64(mean)}
}

// Sample implements ServiceDist.
func (e *ExpService) Sample() sim.Time {
	v := sim.Time(e.rng.Exp(e.mean))
	if v < 1 {
		v = 1
	}
	return v
}

// LogNormalService is log-normally distributed service demand described by
// its mean and the ratio of its 99th percentile to the mean — the natural
// way to state "mean 60 µs, P99 240 µs".
type LogNormalService struct {
	rng       *simrng.Rand
	mu, sigma float64
	cap       sim.Time
}

// NewLogNormalService builds the distribution. ratio must be > 1. cap (if
// > 0) truncates extreme samples; 0 means uncapped.
func NewLogNormalService(rng *simrng.Rand, mean sim.Time, ratio float64, cap sim.Time) *LogNormalService {
	if mean <= 0 || ratio <= 1 {
		panic(fmt.Sprintf("workload: bad LogNormalService mean=%v ratio=%v", mean, ratio))
	}
	mu, sigma := simrng.LogNormalParams(float64(mean), ratio)
	return &LogNormalService{rng: rng, mu: mu, sigma: sigma, cap: cap}
}

// Sample implements ServiceDist.
func (l *LogNormalService) Sample() sim.Time {
	v := sim.Time(l.rng.LogNormal(l.mu, l.sigma))
	if v < 1 {
		v = 1
	}
	if l.cap > 0 && v > l.cap {
		v = l.cap
	}
	return v
}

// Bimodal mixes two service distributions: mostly fast requests with an
// occasional slow one (the moses-style heavy tail).
type Bimodal struct {
	rng   *simrng.Rand
	fast  ServiceDist
	slow  ServiceDist
	pSlow float64
}

// NewBimodal builds the mixture; pSlow in [0, 1] is the slow probability.
func NewBimodal(rng *simrng.Rand, fast, slow ServiceDist, pSlow float64) *Bimodal {
	if fast == nil || slow == nil || pSlow < 0 || pSlow > 1 {
		panic("workload: bad Bimodal params")
	}
	return &Bimodal{rng: rng, fast: fast, slow: slow, pSlow: pSlow}
}

// Sample implements ServiceDist.
func (b *Bimodal) Sample() sim.Time {
	if b.rng.Bool(b.pSlow) {
		return b.slow.Sample()
	}
	return b.fast.Sample()
}

// FanoutDist samples how many parallel subtasks a request fans out to
// (IndexServe-style partitioned query serving).
type FanoutDist interface {
	SampleFanout() int
}

// FixedFanout always fans out to the same number of subtasks.
type FixedFanout int

// SampleFanout implements FanoutDist.
func (f FixedFanout) SampleFanout() int {
	if f < 1 {
		return 1
	}
	return int(f)
}
