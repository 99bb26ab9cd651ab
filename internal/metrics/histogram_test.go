package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"smartharvest/internal/simrng"
)

func TestEmptyHistogram(t *testing.T) {
	h := NewHistogram()
	if h.total != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram stats not zero")
	}
	if h.P99() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantiles not zero")
	}
	if h.CDF() != nil {
		t.Fatal("empty histogram CDF not nil")
	}
	if h.Stddev() != 0 {
		t.Fatal("empty histogram stddev not zero")
	}
}

func TestSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(421_000) // 421 us in ns
	if h.total != 1 {
		t.Fatal("count")
	}
	if h.Min() != 421_000 || h.Max() != 421_000 {
		t.Fatal("min/max")
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if relErr(got, 421_000) > 0.01 {
			t.Fatalf("Quantile(%v) = %d", q, got)
		}
	}
}

func relErr(got, want int64) float64 {
	if want == 0 {
		return math.Abs(float64(got))
	}
	return math.Abs(float64(got-want)) / float64(want)
}

func TestQuantileAgainstExact(t *testing.T) {
	r := simrng.New(99)
	h := NewHistogram()
	mu, sigma := simrng.LogNormalParams(200_000, 3)
	samples := make([]int64, 50000)
	for i := range samples {
		v := int64(r.LogNormal(mu, sigma))
		samples[i] = v
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
		exact := ExactQuantile(samples, q)
		got := h.Quantile(q)
		if relErr(got, exact) > 0.02 {
			t.Errorf("q=%v: histogram %d vs exact %d (err %.3f)", q, got, exact, relErr(got, exact))
		}
	}
}

func TestMeanStddevExact(t *testing.T) {
	h := NewHistogram()
	vals := []int64{10, 20, 30, 40, 50}
	for _, v := range vals {
		h.Record(v)
	}
	if h.Mean() != 30 {
		t.Fatalf("mean = %v", h.Mean())
	}
	want := math.Sqrt(200) // population stddev of 10..50
	if math.Abs(h.Stddev()-want) > 1e-9 {
		t.Fatalf("stddev = %v, want %v", h.Stddev(), want)
	}
}

func TestNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 {
		t.Fatalf("negative not clamped: min %d", h.Min())
	}
}

func TestResetAndReuse(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	h.Reset()
	if h.total != 0 || h.Max() != 0 {
		t.Fatal("reset did not clear")
	}
	h.Record(7)
	if h.total != 1 || h.Min() != 7 {
		t.Fatal("reuse after reset broken")
	}
}

func TestMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(0); i < 1000; i++ {
		a.Record(i)
		b.Record(i + 1000)
	}
	a.Merge(b)
	if a.total != 2000 {
		t.Fatalf("merged count %d", a.total)
	}
	if a.Min() != 0 || a.Max() != 1999 {
		t.Fatalf("merged extremes %d %d", a.Min(), a.Max())
	}
	if relErr(a.P50(), 1000) > 0.02 {
		t.Fatalf("merged P50 = %d", a.P50())
	}
}

func TestMergePrecisionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewHistogramPrecision(7).Merge(NewHistogramPrecision(8))
}

func TestCDFMonotone(t *testing.T) {
	r := simrng.New(5)
	h := NewHistogram()
	for i := 0; i < 10000; i++ {
		h.Record(int64(r.Exp(1e6)))
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	prevV, prevF := int64(-1), 0.0
	for _, p := range cdf {
		if p.Value < prevV || p.Fraction < prevF {
			t.Fatalf("CDF not monotone at %+v", p)
		}
		prevV, prevF = p.Value, p.Fraction
	}
	if math.Abs(cdf[len(cdf)-1].Fraction-1) > 1e-12 {
		t.Fatalf("CDF does not end at 1: %v", cdf[len(cdf)-1].Fraction)
	}
}

// Property: for any set of values, every quantile estimate lies within the
// recorded min..max and quantiles are monotone in q.
func TestQuantileProperty(t *testing.T) {
	if err := quick.Check(func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, v := range raw {
			h.Record(int64(v))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < h.Min() || v > h.Max() || v < prev {
				return false
			}
			prev = v
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: bucket mapping is internally consistent: for random values v,
// bucketLow(idx(v)) <= v <= bucketHigh(idx(v)), and relative width is
// bounded by 2^-subBits.
func TestBucketBoundsProperty(t *testing.T) {
	h := NewHistogram()
	if err := quick.Check(func(v uint64) bool {
		val := int64(v >> 1) // keep non-negative
		i := h.bucketIndex(val)
		lo, hi := h.bucketLow(i), h.bucketHigh(i)
		if val < lo || val > hi {
			return false
		}
		if lo > 0 && float64(hi-lo)/float64(lo) > 1.0/float64(uint64(1)<<(defaultSubBits-1)) {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestNewHistogramPrecisionValidation(t *testing.T) {
	for _, bad := range []uint{0, 17} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("subBits=%d did not panic", bad)
				}
			}()
			NewHistogramPrecision(bad)
		}()
	}
}

func TestExactQuantile(t *testing.T) {
	s := []int64{5, 1, 3, 2, 4}
	if ExactQuantile(s, 0.5) != 3 {
		t.Fatalf("median = %d", ExactQuantile(s, 0.5))
	}
	if ExactQuantile(s, 0) != 1 || ExactQuantile(s, 1) != 5 {
		t.Fatal("extremes wrong")
	}
	if ExactQuantile(nil, 0.5) != 0 {
		t.Fatal("empty should be 0")
	}
	// Input must not be mutated.
	if s[0] != 5 {
		t.Fatal("ExactQuantile mutated input")
	}
}

func TestSummarize(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	s := h.Summarize()
	if s.Count != 100 || s.Min != 1 || s.Max != 100 {
		t.Fatalf("summary %+v", s)
	}
	if relErr(s.P50, 50) > 0.05 || relErr(s.P99, 99) > 0.05 {
		t.Fatalf("summary quantiles %+v", s)
	}
}

func BenchmarkRecord(b *testing.B) {
	h := NewHistogram()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i % 1000000))
	}
}

func BenchmarkQuantile(b *testing.B) {
	h := NewHistogram()
	r := simrng.New(1)
	for i := 0; i < 100000; i++ {
		h.Record(int64(r.Exp(1e6)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = h.P99()
	}
}

// Reset clears the histogram for reuse without reallocating.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.sum = 0
	h.sumSq = 0
	h.min = math.MaxInt64
	h.max = math.MinInt64
}
