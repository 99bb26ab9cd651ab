// Package simrng provides a deterministic, splittable pseudo-random number
// generator and the sampling distributions used throughout the simulator.
//
// The simulator must be exactly reproducible from a single seed so that
// every experiment in EXPERIMENTS.md can be regenerated bit-for-bit. We
// therefore avoid math/rand's global state and implement a small,
// well-understood generator (SplitMix64 for seeding, xoshiro256** for the
// stream) with explicit seeds everywhere.
package simrng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used to expand a single user seed into the four xoshiro words,
// and to derive independent child seeds for Split.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Rand is a deterministic random number generator. It is not safe for
// concurrent use; the simulator is single-threaded by design, and
// independent components should each own a Rand derived via Split.
type Rand struct {
	s [4]uint64
	// cached spare normal variate for the Box-Muller transform
	haveSpare bool
	spare     float64
}

// New returns a generator seeded from seed. Two generators built from the
// same seed produce identical streams.
func New(seed uint64) *Rand {
	r := &Rand{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro requires a nonzero state; SplitMix64 cannot return four
	// zeros from any seed, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// Split derives a new independent generator from r. The child stream is a
// pure function of r's current state, so call order matters and remains
// deterministic.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256**).
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1) with 53 bits of precision.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("simrng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method for unbiased bounded ints.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 computes the 128-bit product of a and b.
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aLo * bLo
	lo = t & mask
	c := t >> 32
	t = aHi*bLo + c
	mid := t & mask
	hiPart := t >> 32
	t = aLo*bHi + mid
	lo |= (t & mask) << 32
	hi = aHi*bHi + hiPart + (t >> 32)
	return hi, lo
}

// Exp returns an exponentially distributed value with the given mean.
// Mean must be positive.
func (r *Rand) Exp(mean float64) float64 {
	// Avoid log(0) by using 1-U which is in (0, 1].
	return -mean * math.Log(1-r.Float64())
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, using the polar Box-Muller transform.
func (r *Rand) Normal(mean, stddev float64) float64 {
	if r.haveSpare {
		r.haveSpare = false
		return mean + stddev*r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			f := math.Sqrt(-2 * math.Log(s) / s)
			r.spare = v * f
			r.haveSpare = true
			return mean + stddev*u*f
		}
	}
}

// LogNormal returns a log-normally distributed value such that the
// underlying normal has parameters mu and sigma.
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(r.Normal(mu, sigma))
}

// z99 is the standard normal 99th-percentile quantile.
const z99 = 2.3263478740408408

// LogNormalParams converts (mean, p99/mean ratio) into (mu, sigma) for a
// log-normal distribution. It solves
//
//	mean = exp(mu + sigma^2/2)
//	p99  = exp(mu + z99*sigma)
//
// for sigma via the quadratic sigma^2/2 - z99*sigma + ln(ratio) = 0.
func LogNormalParams(mean, ratio float64) (mu, sigma float64) {
	if mean <= 0 || ratio <= 1 {
		return math.Log(math.Max(mean, 1e-300)), 0
	}
	l := math.Log(ratio)
	disc := z99*z99 - 2*l
	if disc < 0 {
		// Ratio too extreme for a log-normal; cap at the maximum
		// achievable sigma.
		sigma = z99
	} else {
		sigma = z99 - math.Sqrt(disc)
	}
	mu = math.Log(mean) - sigma*sigma/2
	return mu, sigma
}

// Geometric returns the number of failures before the first success for a
// Bernoulli process with success probability p in (0, 1]. The mean is
// (1-p)/p.
func (r *Rand) Geometric(p float64) int {
	if p >= 1 {
		return 0
	}
	if p <= 0 {
		panic("simrng: Geometric with non-positive p")
	}
	// Inverse transform on the geometric CDF.
	return int(math.Floor(math.Log(1-r.Float64()) / math.Log(1-p)))
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}
