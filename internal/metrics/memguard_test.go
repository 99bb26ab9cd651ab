package metrics

import (
	"fmt"
	"runtime"
	"testing"
)

// bytesAllocated returns what f allocates, in bytes, by
// runtime.MemStats.TotalAlloc: allocs/op would truncate.
func bytesAllocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

var sink []uint64

// tiersBytes is what allocating buckets costs, one slice of n tiers for
// each n, rounded up to the allocator's size classes as a histogram's are.
func tiersBytes(ns ...int) uint64 {
	return bytesAllocated(func() {
		for _, n := range ns {
			sink = make([]uint64, n<<defaultSubBits)
		}
	})
}

// tierValues returns values spread over tiers lo..hi (bucket tiers: tier 0
// holds 0..2^subBits-1, tier t ≥ 1 holds [2^(t-1+subBits), 2^(t+subBits))),
// the lowest value of tier lo first and the highest of tier hi second.
func tierValues(subBits uint, lo, hi int) []int64 {
	first := func(t int) int64 {
		if t == 0 {
			return 0
		}
		return int64(1) << (t - 1 + int(subBits))
	}
	last := func(t int) int64 { return first(t+1) - 1 }
	vals := []int64{first(lo), last(hi)}
	for t := lo; t <= hi; t++ {
		vals = append(vals, first(t), first(t)+(last(t)-first(t))/3, last(t))
	}
	return vals
}

// TestHistogramHoldsOnlyTouchedTiers: a fresh histogram allocates no
// buckets, and querying or merging an empty one allocates nothing. Values
// confined to k tiers, their extremes recorded first, allocate at most k+1
// tiers of buckets (one for the first value, then the k); arriving tier by
// tier upward, at most 4k. Bounds are in allocated bytes, size classes
// included (tiersBytes).
func TestHistogramHoldsOnlyTouchedTiers(t *testing.T) {
	tier := uint64(8) << defaultSubBits // bytes of one tier of buckets

	var h *Histogram
	if b := bytesAllocated(func() { h = NewHistogram() }); b >= tier {
		t.Fatalf("NewHistogram allocated %d B, want the struct alone (< %d)", b, tier)
	}
	empty := NewHistogram()
	if b := bytesAllocated(func() {
		h.Merge(empty)
		_ = h.Quantile(0.99)
		_ = h.CDF()
		_ = h.Summarize()
	}); b != 0 {
		t.Fatalf("an empty histogram's queries and merge allocated %d B, want 0", b)
	}

	for _, c := range []struct{ lo, hi int }{{0, 0}, {0, 3}, {7, 7}, {7, 14}, {20, 29}, {40, 56}, {0, 56}} {
		k := c.hi - c.lo + 1
		t.Run(fmt.Sprintf("tiers %d-%d", c.lo, c.hi), func(t *testing.T) {
			vals := tierValues(defaultSubBits, c.lo, c.hi)
			h := NewHistogram()
			if b, want := bytesAllocated(func() {
				for _, v := range vals {
					h.Record(v)
				}
			}), tiersBytes(1, k); b > want {
				t.Fatalf("extremes first: %d B for %d tiers, want at most %d", b, k, want)
			}
			h = NewHistogram()
			if b, want := bytesAllocated(func() {
				for _, v := range vals[2:] {
					h.Record(v)
				}
			}), 4*tiersBytes(k); b > want {
				t.Fatalf("tier by tier: %d B for %d tiers, want at most %d", b, k, want)
			}
		})
	}
}
