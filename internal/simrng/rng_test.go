package simrng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child must be deterministic given the parent state.
	parent2 := New(7)
	child2 := parent2.Split()
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatalf("split streams diverged at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(5)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("Intn bucket %d count %d far from uniform", i, c)
		}
	}
}

func TestIntnPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestExpMean(t *testing.T) {
	r := New(9)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(125)
		if v < 0 {
			t.Fatalf("negative exponential sample %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-125) > 2 {
		t.Fatalf("exp mean = %v, want ~125", mean)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	const n = 200000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal(10, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Fatalf("normal mean = %v, want ~10", mean)
	}
	if math.Abs(math.Sqrt(variance)-3) > 0.05 {
		t.Fatalf("normal stddev = %v, want ~3", math.Sqrt(variance))
	}
}

func TestLogNormalParamsRoundTrip(t *testing.T) {
	// For a range of (mean, ratio) combinations, drawing many samples
	// should approximately recover the requested mean and P99/mean ratio.
	cases := []struct{ mean, ratio float64 }{
		{100, 2}, {100, 4}, {1000, 3}, {50, 1.5},
	}
	for _, c := range cases {
		r := New(17)
		mu, sigma := LogNormalParams(c.mean, c.ratio)
		const n = 400000
		samples := make([]float64, n)
		sum := 0.0
		for i := range samples {
			samples[i] = r.LogNormal(mu, sigma)
			sum += samples[i]
		}
		mean := sum / n
		if math.Abs(mean-c.mean)/c.mean > 0.05 {
			t.Errorf("mean=%v ratio=%v: sample mean %v", c.mean, c.ratio, mean)
		}
	}
}

func TestLogNormalParamsDegenerate(t *testing.T) {
	mu, sigma := LogNormalParams(100, 1) // ratio 1 -> deterministic
	if sigma != 0 {
		t.Fatalf("ratio 1 should give sigma 0, got %v", sigma)
	}
	if math.Abs(math.Exp(mu)-100) > 1e-9 {
		t.Fatalf("ratio 1 should give mean 100, got %v", math.Exp(mu))
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(23)
	p := 0.25
	const n = 200000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / n
	want := (1 - p) / p
	if math.Abs(mean-want) > 0.05 {
		t.Fatalf("geometric mean = %v, want ~%v", mean, want)
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(43)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v", frac)
	}
}

func TestMul128KnownValues(t *testing.T) {
	hi, lo := mul128(math.MaxUint64, math.MaxUint64)
	if hi != math.MaxUint64-1 || lo != 1 {
		t.Fatalf("mul128 max*max = (%d, %d)", hi, lo)
	}
	hi, lo = mul128(1<<32, 1<<32)
	if hi != 1 || lo != 0 {
		t.Fatalf("mul128 2^32*2^32 = (%d, %d)", hi, lo)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(100)
	}
}
