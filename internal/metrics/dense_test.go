package metrics

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// denseHistogram is the reference Histogram: every one of the 64 tiers
// allocated up front, buckets indexed from value zero. Only tests use it,
// to hold Histogram's quantiles, CDF, summary and merges to it bit for bit.
//
// A reference at subBits 16 holds 32 MiB of buckets, so references are
// pooled (newDense, release) and remember which buckets they touched:
// release clears only those, and the queries walk them in index order,
// skipping the buckets that are zero, as a walk over every bucket would.
type denseHistogram struct {
	subBits    uint
	counts     []uint64
	touched    []int // the non-zero buckets' indexes, sorted when sorted is set
	sorted     bool
	total      uint64
	sum, sumSq float64
	min, max   int64
}

// densePool holds released references by precision.
var densePool struct {
	sync.Mutex
	free [17][]*denseHistogram
}

// newDense returns an empty reference, from the pool when it has one.
func newDense(subBits uint) *denseHistogram {
	densePool.Lock()
	defer densePool.Unlock()
	free := densePool.free[subBits]
	if n := len(free); n > 0 {
		densePool.free[subBits] = free[:n-1]
		return free[n-1]
	}
	return &denseHistogram{
		subBits: subBits,
		counts:  make([]uint64, 64<<subBits),
		sorted:  true,
		min:     math.MaxInt64,
		max:     math.MinInt64,
	}
}

// release empties h and returns it to the pool; h must not be used after.
func release(h *denseHistogram) {
	for _, i := range h.touched {
		h.counts[i] = 0
	}
	*h = denseHistogram{subBits: h.subBits, counts: h.counts, touched: h.touched[:0], sorted: true,
		min: math.MaxInt64, max: math.MinInt64}
	densePool.Lock()
	densePool.free[h.subBits] = append(densePool.free[h.subBits], h)
	densePool.Unlock()
}

// add adds c to bucket i.
func (h *denseHistogram) add(i int, c uint64) {
	if h.counts[i] == 0 {
		h.touched = append(h.touched, i)
		h.sorted = false
	}
	h.counts[i] += c
}

// buckets returns the touched buckets' indexes in ascending order.
func (h *denseHistogram) buckets() []int {
	if !h.sorted {
		slices.Sort(h.touched)
		h.sorted = true
	}
	return h.touched
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
	h.add(h.index(v), 1)
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
	for _, i := range h.buckets() {
		if seen += h.counts[i]; seen >= rank {
			low := h.low(i)
			return min(max(low+(h.high(i)-low)/2, h.min), h.max)
		}
	}
	return h.max
}

func (h *denseHistogram) Merge(o *denseHistogram) {
	for _, i := range o.touched {
		h.add(i, o.counts[i])
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
	for _, i := range h.buckets() {
		cum += h.counts[i]
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
