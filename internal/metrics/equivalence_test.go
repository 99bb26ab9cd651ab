package metrics

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"smartharvest/internal/simrng"
)

// sameAsDense fails t unless h answers every query exactly as the dense
// reference d does.
func sameAsDense(t *testing.T, what string, h *Histogram, d *denseHistogram) {
	t.Helper()
	for _, q := range []float64{0, 0.5, 0.99, 0.999, 1} {
		if got, want := h.Quantile(q), d.Quantile(q); got != want {
			t.Fatalf("%s: Quantile(%v) = %d, dense %d", what, q, got, want)
		}
	}
	if got, want := h.CDF(), d.CDF(); !slices.Equal(got, want) {
		t.Fatalf("%s: CDF\n%v\ndense\n%v", what, got, want)
	}
	if got, want := h.Summarize(), d.Summarize(); got != want {
		t.Fatalf("%s: Summarize %+v, dense %+v", what, got, want)
	}
}

// recordBoth records vals into a fresh Histogram and an empty dense
// reference of the same precision, which the caller releases.
func recordBoth(subBits uint, vals []int64) (*Histogram, *denseHistogram) {
	h, d := NewHistogramPrecision(subBits), newDense(subBits)
	for _, v := range vals {
		h.Record(v)
		d.Record(v)
	}
	return h, d
}

// mergeBothWays merges b into a, then a fresh a into b, and holds each
// result and each merged-in side to the dense reference's. The first
// check of b's side shows that a merge leaves its argument as it was, so
// b serves as the second merge's receiver.
func mergeBothWays(t *testing.T, what string, subBits uint, a, b []int64) {
	t.Helper()
	ha, da := recordBoth(subBits, a)
	hb, db := recordBoth(subBits, b)
	ha.Merge(hb)
	da.Merge(db)
	sameAsDense(t, what, ha, da)
	sameAsDense(t, what+" (merged-in side)", hb, db)
	ha2, da2 := recordBoth(subBits, a)
	hb.Merge(ha2)
	db.Merge(da2)
	sameAsDense(t, what, hb, db)
	sameAsDense(t, what+" (merged-in side)", ha2, da2)
	release(da)
	release(db)
	release(da2)
}

// TestHistogramMatchesDense holds Histogram to the dense reference at every
// precision: the extremes (0, MaxInt64, negatives, which clamp to 0), a
// spread over every tier, values within one tier, and merges of disjoint,
// overlapping, nested and empty ranges, both ways.
func TestHistogramMatchesDense(t *testing.T) {
	r := simrng.New(46)
	spread := func(n int, loBit, hiBit uint) []int64 {
		out := make([]int64, n)
		for i := range out {
			bit := loBit + uint(r.Intn(int(hiBit-loBit)+1))
			out[i] = int64(r.Uint64() >> (64 - bit) >> 1)
		}
		return out
	}
	for subBits := uint(1); subBits <= 16; subBits++ {
		t.Run(fmt.Sprint(subBits), func(t *testing.T) {
			edges := []int64{0, math.MaxInt64, -1, math.MinInt64, 1, 1<<subBits - 1, 1 << subBits, math.MaxInt64 - 1}
			low, high := spread(500, 1, 20), spread(500, 40, 64)
			sets := map[string][]int64{
				"empty":       nil,
				"edges":       edges,
				"zero":        {0, 0, -7},
				"max":         {math.MaxInt64},
				"all tiers":   spread(2000, 1, 64),
				"one tier":    {1 << 30, 1<<30 + 12345, 1<<31 - 1},
				"low":         low,
				"high":        high,
				"low+edges":   append(slices.Clone(low), edges...),
				"latency-ish": spread(2000, 14, 24),
			}
			for name, vals := range sets {
				h, d := recordBoth(subBits, vals)
				sameAsDense(t, name, h, d)
				release(d)
			}
			for _, m := range []struct {
				name string
				a, b []int64
			}{
				{"disjoint", low, high},
				{"overlapping", spread(300, 10, 40), spread(300, 25, 55)},
				{"nested", spread(300, 5, 60), spread(300, 30, 32)},
				{"with edges", edges, spread(300, 20, 30)},
				{"empty", nil, low},
				{"both empty", nil, nil},
			} {
				mergeBothWays(t, m.name, subBits, m.a, m.b)
			}
		})
	}
}
