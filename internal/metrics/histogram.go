// Package metrics provides the measurement machinery used by the simulator
// and the experiment harness: an HDR-style latency histogram with bounded
// relative error, summary statistics, windowed tail-latency tracking, and
// time-series recording.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Histogram records int64 values (typically latencies in nanoseconds) into
// log-linear buckets, HDR-histogram style: values are grouped by their
// highest set bit into exponential tiers, and each tier is split into
// 2^subBits linear sub-buckets, bounding the relative quantile error at
// 2^-subBits (≈0.8% with the default 7 sub-bits).
//
// A histogram holds only the tiers its values have reached: none until
// the first Record, then a window of whole tiers that grows to take in
// each new tier (see cover). Answers do not depend on the window: they are
// those of a histogram holding all 64 tiers.
//
// The zero value is not usable; call NewHistogram.
type Histogram struct {
	subBits uint
	// counts holds the buckets from bucket index base on, whole tiers of
	// 2^subBits; nil until the first Record.
	counts []uint64
	base   int
	total  uint64
	sum    float64
	sumSq  float64
	min    int64
	max    int64
}

const defaultSubBits = 7

// NewHistogram returns an empty histogram with ~0.8% relative error.
func NewHistogram() *Histogram { return NewHistogramPrecision(defaultSubBits) }

// NewHistogramPrecision returns an empty histogram with 2^-subBits relative
// error. subBits must be in [1, 16].
func NewHistogramPrecision(subBits uint) *Histogram {
	if subBits < 1 || subBits > 16 {
		panic(fmt.Sprintf("metrics: subBits %d out of range [1,16]", subBits))
	}
	return &Histogram{
		subBits: subBits,
		min:     math.MaxInt64,
		max:     math.MinInt64,
	}
}

// tiers returns the first and last tier counts holds; hi < lo when it
// holds none.
func (h *Histogram) tiers() (lo, hi int) {
	lo = h.base >> h.subBits
	return lo, lo + len(h.counts)>>h.subBits - 1
}

// cover widens counts to hold tiers lo..hi. Each widening at least
// doubles the span it replaces, on the side that needs it, so a histogram
// whose values arrive tier by tier reallocates only a few times; one
// whose first two values are its extremes allocates those tiers and no
// more. Tier 63-subBits holds MaxInt64, the last a value can reach.
func (h *Histogram) cover(lo, hi int) {
	curLo, curHi := h.tiers()
	if curLo <= lo && hi <= curHi {
		return
	}
	if len(h.counts) > 0 {
		span := curHi - curLo + 1
		if lo < curLo {
			lo = max(min(lo, curHi+1-2*span), 0)
		} else {
			lo = curLo
		}
		if hi > curHi {
			hi = min(max(hi, curLo-1+2*span), 63-int(h.subBits))
		} else {
			hi = curHi
		}
	}
	counts := make([]uint64, (hi-lo+1)<<h.subBits)
	if len(h.counts) > 0 {
		copy(counts[h.base-lo<<h.subBits:], h.counts)
	}
	h.counts, h.base = counts, lo<<h.subBits
}

// bucketIndex maps a non-negative value to its bucket.
func (h *Histogram) bucketIndex(v int64) int {
	u := uint64(v)
	// Values below 2^subBits land in tier 0 linearly.
	if u < 1<<h.subBits {
		return int(u)
	}
	tier := uint(bits.Len64(u)) - 1 - h.subBits // >= 1
	sub := (u >> tier) & ((1 << h.subBits) - 1)
	return int((uint64(tier+1) << h.subBits) + sub)
}

// bucketLow returns the lowest value that maps to bucket i.
func (h *Histogram) bucketLow(i int) int64 {
	tier := uint(i) >> h.subBits
	sub := uint64(i) & ((1 << h.subBits) - 1)
	if tier == 0 {
		return int64(sub)
	}
	shift := tier - 1
	return int64(((1 << h.subBits) + sub) << shift)
}

// bucketHigh returns the highest value that maps to bucket i.
func (h *Histogram) bucketHigh(i int) int64 {
	tier := uint(i) >> h.subBits
	if tier == 0 {
		return h.bucketLow(i)
	}
	return h.bucketLow(i) + (1 << (tier - 1)) - 1
}

// Record adds a value. Negative values are clamped to zero: latencies are
// never negative, and a clamp keeps accounting robust in the face of
// rounding at callers.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	b := h.bucketIndex(v)
	if uint(b-h.base) >= uint(len(h.counts)) {
		t := b >> h.subBits
		h.cover(t, t)
	}
	h.counts[b-h.base]++
	h.total++
	f := float64(v)
	h.sum += f
	h.sumSq += f * f
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Stddev returns the population standard deviation, or 0 when empty.
func (h *Histogram) Stddev() float64 {
	if h.total == 0 {
		return 0
	}
	m := h.Mean()
	v := h.sumSq/float64(h.total) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// Min returns the smallest recorded value, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.total == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest recorded value, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the q-quantile (q in [0, 1]) with
// relative error bounded by the histogram precision. Empty histograms
// return 0. The walk to the rank starts at the nearer end of the buckets,
// so a tail quantile passes few of them.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min()
	}
	if q >= 1 {
		return h.Max()
	}
	// Rank of the desired observation, 1-based, nearest-rank definition.
	rank := max(uint64(math.Ceil(q*float64(h.total))), 1)
	// The answer is the first bucket whose cumulative count reaches rank.
	first, counts := h.occupied()
	if rank <= h.total/2 {
		var below uint64 // observations in buckets up to i
		for i, c := range counts {
			if below += c; c > 0 && below >= rank {
				return h.midpoint(first + i)
			}
		}
	} else {
		var above uint64 // observations in buckets i and up
		for i := len(counts) - 1; i >= 0; i-- {
			if c := counts[i]; c > 0 {
				if above += c; h.total-above < rank {
					return h.midpoint(first + i)
				}
			}
		}
	}
	return h.Max()
}

// occupied returns the buckets from min's to max's, which hold every
// observation, and the bucket index of the first; h must not be empty.
func (h *Histogram) occupied() (first int, counts []uint64) {
	first = h.bucketIndex(h.min)
	return first, h.counts[first-h.base : h.bucketIndex(h.max)-h.base+1]
}

// midpoint is the midpoint of bucket i, clamped to the observed extremes
// so that estimates never exceed the true min/max. low+(high-low)/2: the
// top buckets sit near MaxInt64, where low+high overflows.
func (h *Histogram) midpoint(i int) int64 {
	low := h.bucketLow(i)
	mid := low + (h.bucketHigh(i)-low)/2
	return min(max(mid, h.min), h.max)
}

// P50, P95, P99 and P999 are conveniences for the common quantiles.
func (h *Histogram) P50() int64  { return h.Quantile(0.50) }
func (h *Histogram) P95() int64  { return h.Quantile(0.95) }
func (h *Histogram) P99() int64  { return h.Quantile(0.99) }
func (h *Histogram) P999() int64 { return h.Quantile(0.999) }

// Merge adds other's recorded values into h. The histograms must have the
// same precision.
func (h *Histogram) Merge(other *Histogram) {
	if h.subBits != other.subBits {
		panic("metrics: merging histograms of different precision")
	}
	if other.total == 0 {
		return
	}
	h.cover(other.tiers())
	off := other.base - h.base
	for i, c := range other.counts {
		h.counts[off+i] += c
	}
	h.total += other.total
	h.sum += other.sum
	h.sumSq += other.sumSq
	if other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    int64   // upper bound of the bucket
	Fraction float64 // fraction of observations <= Value
}

// CDF returns the empirical cumulative distribution over the non-empty
// buckets, suitable for plotting (e.g. Figure 14 of the paper).
func (h *Histogram) CDF() []CDFPoint {
	if h.total == 0 {
		return nil
	}
	var out []CDFPoint
	var cum uint64
	first, counts := h.occupied()
	for i, c := range counts {
		if c == 0 {
			continue
		}
		cum += c
		v := h.bucketHigh(first + i)
		if v > h.max {
			v = h.max
		}
		out = append(out, CDFPoint{Value: v, Fraction: float64(cum) / float64(h.total)})
	}
	return out
}

// Summary is a point-in-time digest of a histogram.
type Summary struct {
	Count              uint64
	Mean, Stddev       float64
	Min, P50, P95, P99 int64
	P999, Max          int64
}

// Summarize extracts a Summary.
func (h *Histogram) Summarize() Summary {
	return Summary{
		Count: h.total, Mean: h.Mean(), Stddev: h.Stddev(),
		Min: h.Min(), P50: h.P50(), P95: h.P95(), P99: h.P99(),
		P999: h.P999(), Max: h.Max(),
	}
}

// quantileScratch recycles the sort buffer ExactQuantile copies samples
// into. A sync.Pool (rather than a package-level slice) keeps the
// function safe under harness.RunAll's concurrent scenario workers.
var quantileScratch = sync.Pool{New: func() any { return new([]int64) }}

// ExactQuantile computes the nearest-rank q-quantile of a raw sample slice.
// It is used by tests to validate Histogram and by small-sample paths
// where exactness is cheap: sched's job completion-time quantiles and
// cluster's per-server harvest spread. The
// input is never mutated; the sorted copy lives in a reused scratch
// buffer, so steady-state calls do not allocate.
func ExactQuantile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	bufp := quantileScratch.Get().(*[]int64)
	s := append((*bufp)[:0], samples...)
	slices.Sort(s)
	v := s[len(s)-1]
	if q < 1 {
		rank := max(int(math.Ceil(q*float64(len(s)))), 1)
		v = s[rank-1]
	}
	*bufp = s
	quantileScratch.Put(bufp)
	return v
}
