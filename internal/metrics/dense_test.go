package metrics

import (
	"math"
	"math/bits"
)

// denseHistogram is the reference Histogram: every one of the 64 tiers
// allocated up front, buckets indexed from value zero. Only tests use it,
// to hold Histogram's quantiles, CDF, summary and merges to it bit for bit.
type denseHistogram struct {
	subBits    uint
	counts     []uint64
	total      uint64
	sum, sumSq float64
	min, max   int64
}

func newDense(subBits uint) *denseHistogram {
	return &denseHistogram{
		subBits: subBits,
		counts:  make([]uint64, 64<<subBits),
		min:     math.MaxInt64,
		max:     math.MinInt64,
	}
}

func (h *denseHistogram) index(v int64) int {
	u := uint64(v)
	if u < 1<<h.subBits {
		return int(u)
	}
	tier := uint(bits.Len64(u)) - 1 - h.subBits
	sub := (u >> tier) & ((1 << h.subBits) - 1)
	return int((uint64(tier+1) << h.subBits) + sub)
}

func (h *denseHistogram) low(i int) int64 {
	tier := uint(i) >> h.subBits
	sub := uint64(i) & ((1 << h.subBits) - 1)
	if tier == 0 {
		return int64(sub)
	}
	return int64(((1 << h.subBits) + sub) << (tier - 1))
}

func (h *denseHistogram) high(i int) int64 {
	tier := uint(i) >> h.subBits
	if tier == 0 {
		return h.low(i)
	}
	return h.low(i) + (1 << (tier - 1)) - 1
}

func (h *denseHistogram) Record(v int64) {
	v = max(v, 0)
	h.counts[h.index(v)]++
	h.total++
	f := float64(v)
	h.sum += f
	h.sumSq += f * f
	h.min = min(h.min, v)
	h.max = max(h.max, v)
}

func (h *denseHistogram) Quantile(q float64) int64 {
	switch {
	case h.total == 0:
		return 0
	case q <= 0:
		return h.min
	case q >= 1:
		return h.max
	}
	rank := max(uint64(math.Ceil(q*float64(h.total))), 1)
	var seen uint64
	for i, c := range h.counts {
		if seen += c; c > 0 && seen >= rank {
			low := h.low(i)
			return min(max(low+(h.high(i)-low)/2, h.min), h.max)
		}
	}
	return h.max
}

func (h *denseHistogram) Merge(o *denseHistogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.total += o.total
	h.sum += o.sum
	h.sumSq += o.sumSq
	if o.total > 0 {
		h.min = min(h.min, o.min)
		h.max = max(h.max, o.max)
	}
}

func (h *denseHistogram) CDF() []CDFPoint {
	var out []CDFPoint
	var cum uint64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, CDFPoint{Value: min(h.high(i), h.max), Fraction: float64(cum) / float64(h.total)})
	}
	return out
}

func (h *denseHistogram) Summarize() Summary {
	if h.total == 0 {
		return Summary{}
	}
	mean := h.sum / float64(h.total)
	return Summary{
		Count: h.total, Mean: mean,
		Stddev: math.Sqrt(max(h.sumSq/float64(h.total)-mean*mean, 0)),
		Min:    h.min, P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
		P999: h.Quantile(0.999), Max: h.max,
	}
}
