package harness

import (
	"errors"
	"slices"
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/core"
	"smartharvest/internal/learner"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

func allPredictorKinds() []PredictorKind {
	return []PredictorKind{
		PredictorCSOAA, PredictorAdaGrad, PredictorEWMA,
		PredictorPeriodic, PredictorMLP, PredictorEnsemble,
	}
}

func TestPredictorKindRoundTrip(t *testing.T) {
	for _, kind := range allPredictorKinds() {
		name := kind.String()
		got, err := ParsePredictor(name)
		if err != nil {
			t.Errorf("ParsePredictor(%q): %v", name, err)
			continue
		}
		if got != kind {
			t.Errorf("ParsePredictor(%q) = %v, want %v", name, got, kind)
		}
		text, err := kind.MarshalText()
		if err != nil {
			t.Errorf("%v.MarshalText: %v", kind, err)
			continue
		}
		var back PredictorKind
		if err := back.UnmarshalText(text); err != nil {
			t.Errorf("UnmarshalText(%q): %v", text, err)
			continue
		}
		if back != kind {
			t.Errorf("UnmarshalText(%q) = %v, want %v", text, back, kind)
		}
	}
	// The kinds take their names from the learner zoo: one constant per
	// zoo entry.
	if want, got := len(learner.Zoo), len(allPredictorKinds()); want != got {
		t.Errorf("zoo has %d predictors, PredictorKind declares %d", want, got)
	}
}

func TestParsePredictorUnknown(t *testing.T) {
	_, err := ParsePredictor("nope")
	if !errors.Is(err, ErrUnknownPredictor) {
		t.Fatalf("ParsePredictor(nope) = %v, want ErrUnknownPredictor", err)
	}
	var bad PredictorKind
	if err := bad.UnmarshalText([]byte("nope")); !errors.Is(err, ErrUnknownPredictor) {
		t.Fatalf("UnmarshalText(nope) = %v, want ErrUnknownPredictor", err)
	}
	if _, err := PredictorKind(99).MarshalText(); err == nil {
		t.Fatal("MarshalText accepted an undeclared kind")
	}
}

// TestUndeclaredPredictorKindPanics: building a factory for a kind
// outside the zoo panics with a message naming the kind, not with an
// index out of range.
func TestUndeclaredPredictorKindPanics(t *testing.T) {
	for _, kind := range []PredictorKind{99, -1, PredictorKind(len(learner.Zoo))} {
		func() {
			want := "harness: undeclared " + kind.String()
			defer func() {
				if got := recover(); got != want {
					t.Errorf("SmartHarvestPredictorFactory(%d) panicked with %v, want %q", int(kind), got, want)
				}
			}()
			SmartHarvestPredictorFactory(kind, core.SmartHarvestOptions{})
		}()
	}
}

// predInfoCapture records PredictorInfo events.
type predInfoCapture struct {
	obs.NopObserver
	infos []obs.PredictorInfo
}

func (c *predInfoCapture) OnPredictorInfo(e obs.PredictorInfo) { c.infos = append(c.infos, e) }

// TestPredictorInfoEmission: the run announces the peak predictor of the
// controller it built, once, unless that predictor is the paper's CSOAA —
// at any learning rate, so default traces and the learning-rate
// ablation's carry no predictor line.
func TestPredictorInfoEmission(t *testing.T) {
	cases := []struct {
		name string
		ctrl ControllerFactory
		want []obs.PredictorInfo
	}{
		{"csoaa", SmartHarvestPredictorFactory(PredictorCSOAA, core.SmartHarvestOptions{}), nil},
		{"csoaa-lr0.05", SmartHarvestFactory(core.SmartHarvestOptions{LearningRate: 0.05}), nil},
		{"adagrad", SmartHarvestPredictorFactory(PredictorAdaGrad, core.SmartHarvestOptions{}),
			[]obs.PredictorInfo{{Name: "adagrad", Classes: 11}}},
		{"ewma", SmartHarvestPredictorFactory(PredictorEWMA, core.SmartHarvestOptions{}),
			[]obs.PredictorInfo{{Name: "ewma", Classes: 11}}}, // alloc+1: one 10-core VM
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := short("pred-info", apps.Memcached(40000))
			s.Duration = 500 * sim.Millisecond
			s.Warmup = 100 * sim.Millisecond
			s.Controller = tc.ctrl
			cap := &predInfoCapture{}
			s.Observer = cap
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(cap.infos, tc.want) {
				t.Errorf("PredictorInfo events %+v, want %+v", cap.infos, tc.want)
			}
			if res.Policy != "smartharvest" {
				t.Errorf("policy %q, want smartharvest", res.Policy)
			}
		})
	}
}

// TestZooPredictorsRunEndToEnd drives each non-default predictor through
// a real (short) scenario.
func TestZooPredictorsRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, kind := range allPredictorKinds()[1:] {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			s := short("zoo-"+kind.String(), apps.Memcached(40000))
			s.Duration = 2 * sim.Second
			s.Warmup = 500 * sim.Millisecond
			s.Controller = SmartHarvestPredictorFactory(kind, core.SmartHarvestOptions{})
			res, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Windows == 0 {
				t.Fatal("no learning windows ran")
			}
		})
	}
}
