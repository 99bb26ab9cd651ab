package learner

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"smartharvest/internal/simrng"
)

func TestFeaturesKnownValues(t *testing.T) {
	fe := NewFeatureExtractor(10)
	f := fe.Compute([]int{2, 4, 4, 4, 5, 5, 7, 9})
	if f.Min != 2 || f.Max != 9 {
		t.Fatalf("min/max %v/%v", f.Min, f.Max)
	}
	if f.Avg != 5 {
		t.Fatalf("avg %v", f.Avg)
	}
	if math.Abs(f.Std-2) > 1e-9 {
		t.Fatalf("std %v, want 2", f.Std)
	}
	if f.Median != 4 {
		t.Fatalf("median %v (lower median of even-length window)", f.Median)
	}
}

func TestFeaturesSingleSample(t *testing.T) {
	fe := NewFeatureExtractor(10)
	f := fe.Compute([]int{3})
	if f.Min != 3 || f.Max != 3 || f.Avg != 3 || f.Median != 3 || f.Std != 0 {
		t.Fatalf("features %+v", f)
	}
}

func TestFeaturesPanics(t *testing.T) {
	fe := NewFeatureExtractor(4)
	for name, f := range map[string]func(){
		"empty":        func() { fe.Compute(nil) },
		"out-of-range": func() { fe.Compute([]int{5}) },
		"negative":     func() { fe.Compute([]int{-1}) },
		"bad-extract":  func() { NewFeatureExtractor(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: features match a naive reference computation.
func TestFeaturesMatchReference(t *testing.T) {
	fe := NewFeatureExtractor(20)
	if err := quick.Check(func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]int, len(raw))
		for i, v := range raw {
			samples[i] = int(v % 21)
		}
		f := fe.Compute(samples)
		s := append([]int(nil), samples...)
		sort.Ints(s)
		wantMedian := float64(s[(len(s)-1)/2])
		var sum float64
		for _, v := range s {
			sum += float64(v)
		}
		mean := sum / float64(len(s))
		var varSum float64
		for _, v := range s {
			d := float64(v) - mean
			varSum += d * d
		}
		return f.Min == float64(s[0]) && f.Max == float64(s[len(s)-1]) &&
			math.Abs(f.Avg-mean) < 1e-9 &&
			math.Abs(f.Std-math.Sqrt(varSum/float64(len(s)))) < 1e-6 &&
			f.Median == wantMedian
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureVectorNormalization(t *testing.T) {
	f := Features{Min: 1, Max: 10, Avg: 5, Std: 2, Median: 4}
	dst := make([]float64, NumFeatures)
	v := f.Vector(dst, 10)
	want := []float64{0.1, 1, 0.5, 0.2, 0.4}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("vector %v, want %v", v, want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad dst length did not panic")
		}
	}()
	f.Vector(make([]float64, 3), 10)
}

func TestCostFunctions(t *testing.T) {
	sk := SkewedCost{UnderPenalty: 10}
	cases := []struct {
		cf           CostFunc
		class, corr  int
		want         float64
		wantedByName string
	}{
		{sk, 5, 5, 0, "skewed"},
		{sk, 7, 5, 2, "skewed"},
		{sk, 3, 5, 12, "skewed"},
		{SymmetricCost{}, 3, 5, 2, "symmetric"},
		{SymmetricCost{}, 7, 5, 2, "symmetric"},
		{SymmetricCost{}, 5, 5, 0, "symmetric"},
		{HingedCost{UnderPenalty: 8, OverCost: 1}, 9, 5, 1, "hinged"},
		{HingedCost{UnderPenalty: 8, OverCost: 1}, 6, 5, 1, "hinged"},
		{HingedCost{UnderPenalty: 8, OverCost: 1}, 4, 5, 9, "hinged"},
		{HingedCost{UnderPenalty: 8, OverCost: 1}, 5, 5, 0, "hinged"},
	}
	for _, c := range cases {
		if got := c.cf.Cost(c.class, c.corr); got != c.want {
			t.Errorf("%s.Cost(%d,%d) = %v, want %v", c.cf.Name(), c.class, c.corr, got, c.want)
		}
		if c.cf.Name() != c.wantedByName {
			t.Errorf("name %q", c.cf.Name())
		}
	}
}

// Property: all three cost functions are zero exactly at the correct
// class, and skewed penalizes under more than the mirrored over.
func TestCostProperties(t *testing.T) {
	sk := SkewedCost{UnderPenalty: 10}
	hg := HingedCost{UnderPenalty: 10, OverCost: 1}
	if err := quick.Check(func(classRaw, corrRaw uint8) bool {
		class, corr := int(classRaw%11), int(corrRaw%11)
		for _, cf := range []CostFunc{sk, SymmetricCost{}, hg} {
			c := cf.Cost(class, corr)
			if c < 0 {
				return false
			}
			if (c == 0) != (class == corr) {
				return false
			}
		}
		if class != corr {
			d := class - corr
			if d < 0 {
				d = -d
			}
			if sk.Cost(corr-d, corr) <= sk.Cost(corr+d, corr) {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFillCosts(t *testing.T) {
	dst := make([]float64, 4)
	FillCosts(dst, SymmetricCost{}, 2)
	want := []float64{2, 1, 0, 1}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("costs %v", dst)
		}
	}
}

func TestCSOAAUntrainedPredictsConservative(t *testing.T) {
	c := NewCSOAA(11, NumFeatures, 0.1)
	x := make([]float64, NumFeatures)
	if got := c.Predict(x); got != 10 {
		t.Fatalf("untrained prediction %d, want 10 (highest class)", got)
	}
}

func TestCSOAALearnsConstantTarget(t *testing.T) {
	// If the true peak is always 4, after training the learner should
	// predict 4 (skewed costs make 4 the unique argmin).
	c := NewCSOAA(11, NumFeatures, 0.1)
	cf := SkewedCost{UnderPenalty: 10}
	x := []float64{0.1, 0.4, 0.2, 0.05, 0.2}
	costs := make([]float64, 11)
	for i := 0; i < 300; i++ {
		c.Update(x, FillCosts(costs, cf, 4))
	}
	if got := c.Predict(x); got != 4 {
		t.Fatalf("prediction %d, want 4", got)
	}
	if c.Updates() != 300 {
		t.Fatalf("updates %d", c.Updates())
	}
}

func TestCSOAALearnsFeatureDependentTarget(t *testing.T) {
	// Peak depends on the max feature: target = round(10*max). The
	// learner should track it for held-out feature values.
	rng := simrng.New(7)
	c := NewCSOAA(11, NumFeatures, 0.1)
	cf := SkewedCost{UnderPenalty: 10}
	costs := make([]float64, 11)
	x := make([]float64, NumFeatures)
	for i := 0; i < 20000; i++ {
		max := rng.Float64()
		x[0], x[1], x[2], x[3], x[4] = max/4, max, max/2, max/8, max/2
		target := int(math.Round(10 * max))
		c.Update(x, FillCosts(costs, cf, target))
	}
	// Evaluate on a grid. The skewed cost intentionally biases upward:
	// predictions must track the target from above (never meaningfully
	// under, small bounded over) and be monotone in the signal.
	prev := -1
	for i := 0; i <= 20; i++ {
		max := float64(i) / 20
		x[0], x[1], x[2], x[3], x[4] = max/4, max, max/2, max/8, max/2
		want := int(math.Round(10 * max))
		got := c.Predict(x)
		if got < want-1 {
			t.Fatalf("underprediction at max=%v: got %d, want >= %d", max, got, want-1)
		}
		if got > want+5 {
			t.Fatalf("excessive overprediction at max=%v: got %d, want <= %d", max, got, want+5)
		}
		if got < prev {
			t.Fatalf("prediction not monotone in signal at max=%v: %d after %d", max, got, prev)
		}
		prev = got
	}
}

func TestCSOAASkewAvoidsUnderprediction(t *testing.T) {
	// Noisy target: peak alternates 3 and 6 unpredictably. With skewed
	// costs the cheapest fixed prediction is 6 (cost 3 when true is 3)
	// rather than anything lower (which pays the under-penalty half the
	// time). Symmetric costs may pick the middle.
	rng := simrng.New(9)
	c := NewCSOAA(11, NumFeatures, 0.1)
	cf := SkewedCost{UnderPenalty: 10}
	costs := make([]float64, 11)
	x := []float64{0.1, 0.5, 0.3, 0.1, 0.3} // constant features: no signal
	for i := 0; i < 5000; i++ {
		target := 3
		if rng.Bool(0.5) {
			target = 6
		}
		c.Update(x, FillCosts(costs, cf, target))
	}
	if got := c.Predict(x); got != 6 {
		t.Fatalf("prediction %d under unpredictable peaks, want 6 (never under)", got)
	}
}

func TestCSOAAPredictedCosts(t *testing.T) {
	c := NewCSOAA(3, 1, 0.5)
	costs := make([]float64, 3)
	x := []float64{1}
	c.Update(x, []float64{3, 1, 2})
	for cl := range costs {
		costs[cl] = c.score(cl, x)
	}
	// One SGD step at lr 0.5 from zero: score = 0.5*target*(1+1) = target.
	want := []float64{3, 1, 2}
	for i := range want {
		if math.Abs(costs[i]-want[i]) > 1e-9 {
			t.Fatalf("predicted costs %v, want %v", costs, want)
		}
	}
	if got := c.Predict(x); got != 1 {
		t.Fatalf("argmin %d", got)
	}
}

func TestCSOAAValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"classes": func() { NewCSOAA(1, 5, 0.1) },
		"nfeat":   func() { NewCSOAA(3, 0, 0.1) },
		"lr0":     func() { NewCSOAA(3, 5, 0) },
		"lr2":     func() { NewCSOAA(3, 5, 2) },
		"predict": func() { NewCSOAA(3, 5, 0.1).Predict([]float64{1}) },
		"update":  func() { NewCSOAA(3, 5, 0.1).Update(make([]float64, 5), []float64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestEWMATracksLevel(t *testing.T) {
	e := NewEWMA(0.3, 1, 10)
	if e.Predict() != 10 {
		t.Fatal("unseen EWMA should predict max")
	}
	for i := 0; i < 100; i++ {
		e.Observe(4)
	}
	if got := e.Predict(); got != 5 {
		t.Fatalf("EWMA predict %d, want 4+margin", got)
	}
}

func TestEWMALagsBursts(t *testing.T) {
	// After a long calm period, a sudden burst is underpredicted — the
	// motivating failure of history smoothing.
	e := NewEWMA(0.2, 1, 10)
	for i := 0; i < 200; i++ {
		e.Observe(1)
	}
	pred := e.Predict()
	if pred >= 8 {
		t.Fatalf("EWMA predicted %d before the burst; test needs a low level", pred)
	}
	e.Observe(9) // burst
	if e.Predict() >= 9 {
		t.Fatal("EWMA should still lag one burst observation")
	}
}

func TestEWMAValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"alpha0": func() { NewEWMA(0, 1, 10) },
		"alpha2": func() { NewEWMA(2, 1, 10) },
		"max":    func() { NewEWMA(0.5, 1, 0) },
		"margin": func() { NewEWMA(0.5, -1, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Benchmarks backing the paper's Table 3 (learning-operation latencies).

func BenchmarkFeatureComputation(b *testing.B) {
	fe := NewFeatureExtractor(10)
	rng := simrng.New(1)
	samples := make([]int, 500) // 25ms window at 50us polls
	for i := range samples {
		samples[i] = rng.Intn(11)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = fe.Compute(samples)
	}
}

func BenchmarkModelInference(b *testing.B) {
	c := NewCSOAA(11, NumFeatures, 0.1)
	x := []float64{0.1, 0.7, 0.3, 0.1, 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.Predict(x)
	}
}

func BenchmarkModelUpdate(b *testing.B) {
	c := NewCSOAA(11, NumFeatures, 0.1)
	x := []float64{0.1, 0.7, 0.3, 0.1, 0.3}
	costs := make([]float64, 11)
	FillCosts(costs, SkewedCost{UnderPenalty: 10}, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Update(x, costs)
	}
}
