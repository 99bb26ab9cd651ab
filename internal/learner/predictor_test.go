package learner

import (
	"strings"
	"testing"

	"smartharvest/internal/simrng"
)

const testClasses = 11 // 10-core VM: classes 0..10

// synthWindow fabricates one training window: a peak level plus the
// matching feature vector and cost vector.
func synthWindow(rng *simrng.Rand, peak int) (x, costs []float64) {
	f := Features{
		Min:    float64(peak) * 0.3,
		Max:    float64(peak),
		Avg:    float64(peak) * 0.6,
		Std:    rng.Float64(),
		Median: float64(peak) * 0.55,
	}
	x = f.Vector(make([]float64, NumFeatures), float64(testClasses-1))
	costs = FillCosts(make([]float64, testClasses), SkewedCost{}, peak)
	return x, costs
}

// trainPeriodicPeaks drives a predictor through a square-wave peak
// pattern (periodHigh windows at high, periodLow at low) and returns the
// timestamped window sequence for replay.
func squareWavePeaks(n, periodWindows, high, low int) []int {
	peaks := make([]int, n)
	for i := range peaks {
		if (i/periodWindows)%2 == 0 {
			peaks[i] = high
		} else {
			peaks[i] = low
		}
	}
	return peaks
}

const windowNS = int64(25_000_000) // the agent's 25 ms learning window

func TestRegistryNames(t *testing.T) {
	names := Names()
	want := []string{"adagrad", "csoaa", "ensemble", "ewma", "mlp", "periodic"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
}

// TestPredictorContractBasics checks the parts of the Predictor contract
// shared by every zoo implementation: the name round-trips through the
// zoo, class count sticks, an untrained predictor is
// conservative (max class), updates count, and Reset returns to the
// untrained state.
func TestPredictorContractBasics(t *testing.T) {
	for _, e := range Zoo {
		name := e.Name
		p := e.New(testClasses)
		if p.Name() != name {
			t.Errorf("%s: Name() = %q", name, p.Name())
		}
		if p.Classes() != testClasses {
			t.Errorf("%s: Classes() = %d, want %d", name, p.Classes(), testClasses)
		}
		rng := simrng.New(1)
		x, _ := synthWindow(rng, 2)
		if got := p.Predict(0, x); got != testClasses-1 {
			t.Errorf("%s: untrained Predict = %d, want conservative %d", name, got, testClasses-1)
		}
		if p.Updates() != 0 {
			t.Errorf("%s: fresh Updates() = %d", name, p.Updates())
		}
		for i := 0; i < 200; i++ {
			now := int64(i) * windowNS
			x, costs := synthWindow(rng, 3)
			p.Predict(now, x)
			p.Update(now, x, 3, costs)
		}
		if p.Updates() != 200 {
			t.Errorf("%s: Updates() = %d, want 200", name, p.Updates())
		}
		p.Reset()
		if p.Updates() != 0 {
			t.Errorf("%s: Updates() after Reset = %d", name, p.Updates())
		}
		if got := p.Predict(0, x); got != testClasses-1 {
			t.Errorf("%s: post-Reset Predict = %d, want conservative %d", name, got, testClasses-1)
		}
	}
}

// TestPredictorInitBiasPanicsAfterTraining pins the misuse guard: every
// implementation must reject a late InitBias loudly.
func TestPredictorInitBiasPanicsAfterTraining(t *testing.T) {
	for _, e := range Zoo {
		name := e.Name
		p := e.New(testClasses)
		rng := simrng.New(2)
		x, costs := synthWindow(rng, 4)
		p.Update(0, x, 4, costs)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: InitBias after training did not panic", name)
				}
			}()
			p.InitBias(costs)
		}()
	}
}

// TestPredictorCheckpointRestoreBitIdentical is the per-predictor
// restore guarantee: train, checkpoint, restore into a fresh instance,
// then both must produce bit-identical predictions AND keep agreeing
// through further training.
func TestPredictorCheckpointRestoreBitIdentical(t *testing.T) {
	for _, e := range Zoo {
		name := e.Name
		p := e.New(testClasses)
		rng := simrng.New(3)
		for i := 0; i < 150; i++ {
			now := int64(i) * windowNS
			peak := 2 + rng.Intn(6)
			x, costs := synthWindow(rng, peak)
			p.Predict(now, x)
			p.Update(now, x, peak, costs)
		}
		snap, err := p.Checkpoint()
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", name, err)
		}
		q := e.New(testClasses)
		if err := q.Restore(snap); err != nil {
			t.Fatalf("%s: restore: %v", name, err)
		}
		if q.Updates() != p.Updates() {
			t.Errorf("%s: restored Updates = %d, want %d", name, q.Updates(), p.Updates())
		}
		// Same stream drives both from here; every prediction must agree.
		rng2 := simrng.New(4)
		for i := 150; i < 300; i++ {
			now := int64(i) * windowNS
			peak := 1 + rng2.Intn(8)
			x, costs := synthWindow(rng2, peak)
			got, want := q.Predict(now, x), p.Predict(now, x)
			if got != want {
				t.Fatalf("%s: window %d: restored predicts %d, original %d", name, i, got, want)
			}
			p.Update(now, x, peak, costs)
			q.Update(now, x, peak, costs)
		}
	}
}

// TestPredictorRestoreRejectsGarbage: malformed and cross-shaped
// payloads must error, not corrupt state.
func TestPredictorRestoreRejectsGarbage(t *testing.T) {
	for _, e := range Zoo {
		name := e.Name
		p := e.New(testClasses)
		if err := p.Restore([]byte("{")); err == nil {
			t.Errorf("%s: truncated payload accepted", name)
		}
		// A checkpoint from a different class count must be rejected.
		other := e.New(testClasses + 2)
		snap, err := other.Checkpoint()
		if err != nil {
			t.Fatalf("%s: checkpoint: %v", name, err)
		}
		if err := p.Restore(snap); err == nil {
			t.Errorf("%s: wrong-shape checkpoint accepted", name)
		}
	}
}

// TestPeriodicLearnsSquareWave: after warmup on a clean square wave,
// Periodic should anticipate the high phase instead of trailing it.
func TestPeriodicLearnsSquareWave(t *testing.T) {
	p := NewPeriodic(testClasses)
	rng := simrng.New(5)
	// 1 s period = 40 windows: 20 high (8 cores), 20 low (1 core); among
	// the candidate periods.
	peaks := squareWavePeaks(800, 20, 8, 1)
	for i, peak := range peaks {
		now := int64(i) * windowNS
		x, costs := synthWindow(rng, peak)
		p.Update(now, x, peak, costs)
	}
	// Score the predictor over the next full cycle: predictions at the
	// end of window i target window i+1.
	var absErr, worst float64
	n := 0
	for i := 800; i < 840; i++ {
		now := int64(i) * windowNS
		x, costs := synthWindow(rng, peaks[i%800])
		next := float64(peaks[(i+1)%800])
		got := float64(p.Predict(now, x))
		d := got - next
		if d < 0 {
			d = -d
		}
		absErr += d
		if d > worst {
			worst = d
		}
		p.Update(now, x, peaks[i%800], costs)
		n++
	}
	if mean := absErr / float64(n); mean > 2.0 {
		t.Errorf("periodic mean |err| on learned square wave = %.2f, want <= 2", mean)
	}
	// An untrained conservative predictor would sit at 10 and score a
	// mean error near 5.5 on this wave; periodic must clearly beat that.
}

// TestMLPLearnsConstantTarget: the online MLP must converge on an easy
// stationary problem.
func TestMLPLearnsConstantTarget(t *testing.T) {
	m := NewMLP(testClasses)
	rng := simrng.New(6)
	const peak = 4
	for i := 0; i < 600; i++ {
		now := int64(i) * windowNS
		x, costs := synthWindow(rng, peak)
		m.Update(now, x, peak, costs)
	}
	x, _ := synthWindow(rng, peak)
	got := m.Predict(600*windowNS, x)
	if got < peak-1 || got > peak+1 {
		t.Errorf("mlp predicts %d after training on constant peak %d", got, peak)
	}
}

// TestMLPDeterministicInit: two fresh MLPs are bit-identical (seeded
// weight init, no global RNG).
func TestMLPDeterministicInit(t *testing.T) {
	a, b := NewMLP(testClasses), NewMLP(testClasses)
	rng := simrng.New(7)
	for i := 0; i < 100; i++ {
		now := int64(i) * windowNS
		peak := rng.Intn(testClasses)
		x, costs := synthWindow(rng, peak)
		if pa, pb := a.Predict(now, x), b.Predict(now, x); pa != pb {
			t.Fatalf("window %d: twin MLPs diverge: %d vs %d", i, pa, pb)
		}
		a.Update(now, x, peak, costs)
		b.Update(now, x, peak, costs)
	}
}

// TestEnsembleRegretBound property-tests the combinator's invariant:
// after every update, either the active member's decayed loss is within
// EnsembleSwitchMargin of the best member's, or the ensemble has pinned
// itself to the EWMA fallback because every member's loss exploded.
func TestEnsembleRegretBound(t *testing.T) {
	rng := simrng.New(8)
	for trial := 0; trial < 20; trial++ {
		e := NewEnsemble(testClasses)
		// Random regime-switching peak process: stretches of constant,
		// periodic, and noisy peaks.
		regime := rng.Intn(3)
		level := rng.Intn(testClasses)
		for i := 0; i < 400; i++ {
			if rng.Float64() < 0.02 {
				regime = rng.Intn(3)
				level = rng.Intn(testClasses)
			}
			var peak int
			switch regime {
			case 0:
				peak = level
			case 1:
				peak = []int{1, 8}[(i/20)%2]
			default:
				peak = rng.Intn(testClasses)
			}
			now := int64(i) * windowNS
			x, costs := synthWindow(rng, peak)
			e.Predict(now, x)
			e.Update(now, x, peak, costs)

			losses := e.Losses()
			best := losses[0]
			for _, l := range losses[1:] {
				if l < best {
					best = l
				}
			}
			active := losses[e.Active()]
			withinMargin := active <= best+EnsembleSwitchMargin
			pinned := e.Active() == e.Fallback()
			if !withinMargin && !pinned {
				t.Fatalf("trial %d window %d: regret invariant violated: active %s loss %.3f, best %.3f (margin %.2f), not on fallback",
					trial, i, e.ActiveName(), active, best, EnsembleSwitchMargin)
			}
		}
	}
}

// TestEnsembleSwitchesToBetterMember: on a strongly periodic workload
// with an adversarial feature vector, the feature-free members should
// take over from CSOAA eventually — the ensemble must not stay pinned to
// its initial choice when evidence accumulates.
func TestEnsembleTracksBestMember(t *testing.T) {
	e := NewEnsemble(testClasses)
	rng := simrng.New(9)
	// Constant peak: EWMA nails this immediately; CSOAA needs to learn.
	const peak = 3
	for i := 0; i < 300; i++ {
		now := int64(i) * windowNS
		x, costs := synthWindow(rng, peak)
		e.Predict(now, x)
		e.Update(now, x, peak, costs)
	}
	losses := e.Losses()
	active := losses[e.Active()]
	for i, l := range losses {
		if l+EnsembleSwitchMargin < active {
			t.Errorf("member %d (%s) loss %.3f beats active (%s) %.3f by more than the margin",
				i, e.Members()[i].Name(), l, e.ActiveName(), active)
		}
	}
	// And on an easy stationary problem the ensemble must predict well.
	x, _ := synthWindow(rng, peak)
	if got := e.Predict(300*windowNS, x); got < peak || got > peak+2 {
		t.Errorf("ensemble predicts %d on constant peak %d", got, peak)
	}
}

// TestPredictorsZeroAlloc pins the hot-path allocation contract for
// every zoo predictor: once constructed and warmed, Predict and
// Update must not allocate.
func TestPredictorsZeroAlloc(t *testing.T) {
	for _, e := range Zoo {
		name := e.Name
		p := e.New(testClasses)
		rng := simrng.New(10)
		x, costs := synthWindow(rng, 5)
		// Warm up: first calls may lazily size internal state.
		for i := 0; i < 100; i++ {
			now := int64(i) * windowNS
			p.Predict(now, x)
			p.Update(now, x, 5, costs)
		}
		var i int64 = 100
		avg := testing.AllocsPerRun(200, func() {
			now := i * windowNS
			p.Predict(now, x)
			p.Update(now, x, 5, costs)
			i++
		})
		if avg != 0 {
			t.Errorf("%s: %.1f allocs per Predict+Update, want 0", name, avg)
		}
	}
}
