package learner

import (
	"math"
	"testing"

	"smartharvest/internal/simrng"
)

// newAdaGrad is the bare CSOAA with AdaGrad accumulators.
func newAdaGrad(classes, nfeat int, lr float64) *CSOAA {
	return NewAdaGradPredictor(classes, nfeat, lr).CSOAA
}

func TestAdaptiveLearnsConstantTarget(t *testing.T) {
	a := newAdaGrad(11, NumFeatures, 0.5)
	cf := SkewedCost{UnderPenalty: 10}
	x := []float64{0.1, 0.4, 0.2, 0.05, 0.2}
	costs := make([]float64, 11)
	for i := 0; i < 500; i++ {
		a.Update(x, FillCosts(costs, cf, 4))
	}
	if got := a.Predict(x); got != 4 {
		t.Fatalf("prediction %d, want 4", got)
	}
	if a.Updates() != 500 {
		t.Fatalf("updates %d", a.Updates())
	}
}

func TestAdaptiveUntrainedConservative(t *testing.T) {
	a := newAdaGrad(11, NumFeatures, 0.5)
	if got := a.Predict(make([]float64, NumFeatures)); got != 10 {
		t.Fatalf("untrained prediction %d", got)
	}
}

func TestAdaptiveInitBias(t *testing.T) {
	a := newAdaGrad(3, 1, 0.5)
	a.InitBias([]float64{5, 1, 3})
	if got := a.Predict([]float64{0}); got != 1 {
		t.Fatalf("biased prediction %d, want argmin class 1", got)
	}
	a.Update([]float64{0}, []float64{0, 0, 0})
	defer func() {
		if recover() == nil {
			t.Fatal("InitBias after training did not panic")
		}
	}()
	a.InitBias([]float64{0, 0, 0})
}

func TestAdaptiveConvergesFasterEarly(t *testing.T) {
	// On a stationary target, AdaGrad should reach the right class in
	// fewer updates than constant-rate SGD at the same base step.
	target := 3
	cf := SkewedCost{UnderPenalty: 10}
	x := []float64{0.1, 0.3, 0.2, 0.05, 0.2}
	costs := make([]float64, 11)
	FillCosts(costs, cf, target)

	stepsTo := func(predict func() int, update func()) int {
		for i := 1; i <= 2000; i++ {
			update()
			if predict() == target {
				return i
			}
		}
		return 2001
	}
	a := newAdaGrad(11, NumFeatures, 0.1)
	c := NewCSOAA(11, NumFeatures, 0.1)
	adaptiveSteps := stepsTo(func() int { return a.Predict(x) }, func() { a.Update(x, costs) })
	constSteps := stepsTo(func() int { return c.Predict(x) }, func() { c.Update(x, costs) })
	if adaptiveSteps > constSteps {
		t.Fatalf("adaptive took %d steps, constant %d; expected adaptive <= constant",
			adaptiveSteps, constSteps)
	}
}

func TestAdaptiveTracksChangingTargetEventually(t *testing.T) {
	rng := simrng.New(3)
	a := newAdaGrad(11, NumFeatures, 0.5)
	cf := SkewedCost{UnderPenalty: 10}
	costs := make([]float64, 11)
	x := make([]float64, NumFeatures)
	fill := func(max float64) {
		x[0], x[1], x[2], x[3], x[4] = max/4, max, max/2, max/8, max/2
	}
	for i := 0; i < 5000; i++ {
		max := rng.Float64()
		fill(max)
		a.Update(x, FillCosts(costs, cf, int(math.Round(10*max))))
	}
	fill(0.2)
	lo := a.Predict(x)
	fill(0.9)
	hi := a.Predict(x)
	if hi <= lo {
		t.Fatalf("adaptive model not tracking signal: lo=%d hi=%d", lo, hi)
	}
}

func TestAdaptiveValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"classes": func() { newAdaGrad(1, 5, 0.5) },
		"nfeat":   func() { newAdaGrad(3, 0, 0.5) },
		"eta":     func() { newAdaGrad(3, 5, 0) },
		"predict": func() { newAdaGrad(3, 5, 0.5).Predict([]float64{1}) },
		"update":  func() { newAdaGrad(3, 5, 0.5).Update(make([]float64, 5), []float64{1}) },
		"bias":    func() { newAdaGrad(3, 5, 0.5).InitBias([]float64{1}) },
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

func TestFeatureMask(t *testing.T) {
	m := NewFeatureMask("max", "avg")
	x := []float64{0.2, 0.8, 0.5, 0.3, 0.4}
	m.Apply(x)
	// min, std, median masked to zero; max=0.8, avg=0.5 present.
	if x[0] != 0 || x[3] != 0 || x[4] != 0 {
		t.Fatalf("masked features leaked: %v", x)
	}
	if x[1] != 0.8 || x[2] != 0.5 {
		t.Fatalf("kept features wrong: %v", x)
	}
	var all FeatureMask
	x = []float64{0.2, 0.8, 0.5, 0.3, 0.4}
	all.Apply(x)
	if x[0] != 0.2 || x[4] != 0.4 {
		t.Fatalf("zero mask dropped features: %v", x)
	}
}

func TestFeatureMaskValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"empty":   func() { NewFeatureMask() },
		"unknown": func() { NewFeatureMask("p95") },
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

func BenchmarkAdaptiveUpdate(b *testing.B) {
	a := newAdaGrad(11, NumFeatures, 0.5)
	x := []float64{0.1, 0.7, 0.3, 0.1, 0.3}
	costs := make([]float64, 11)
	FillCosts(costs, SkewedCost{UnderPenalty: 10}, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Update(x, costs)
	}
}
