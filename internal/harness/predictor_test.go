package harness

import (
	"errors"
	"testing"

	"smartharvest/internal/apps"
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

func TestScenarioRejectsUnknownPredictor(t *testing.T) {
	s := short("bad-pred", apps.Memcached(40000))
	s.Predictor = PredictorKind(99)
	_, err := Run(s)
	if !errors.Is(err, ErrUnknownPredictor) {
		t.Fatalf("Run = %v, want ErrUnknownPredictor", err)
	}
	var se *ScenarioError
	if !errors.As(err, &se) || se.Field != "Predictor" {
		t.Fatalf("want *ScenarioError on field Predictor, got %v", err)
	}
}

func TestScenarioRejectsPredictorConflict(t *testing.T) {
	// An explicit Controller would silently ignore Predictor, so the
	// combination must be rejected, not guessed at.
	s := short("pred-conflict", apps.Memcached(40000))
	s.Controller = NoHarvestFactory()
	s.Predictor = PredictorEWMA
	_, err := Run(s)
	if !errors.Is(err, ErrPredictorConflict) {
		t.Fatalf("Run = %v, want ErrPredictorConflict", err)
	}
	var se *ScenarioError
	if !errors.As(err, &se) || se.Field != "Predictor" {
		t.Fatalf("want *ScenarioError on field Predictor, got %v", err)
	}
	// The default kind with an explicit controller is fine.
	s.Predictor = PredictorCSOAA
	if _, err := Run(s); err != nil {
		t.Fatalf("Controller with default Predictor: %v", err)
	}
}

// predInfoCapture records PredictorInfo events.
type predInfoCapture struct {
	obs.NopObserver
	infos []obs.PredictorInfo
}

func (c *predInfoCapture) OnPredictorInfo(e obs.PredictorInfo) { c.infos = append(c.infos, e) }

func TestPredictorInfoEmission(t *testing.T) {
	mk := func(kind PredictorKind) (*predInfoCapture, *Result) {
		s := short("pred-info", apps.Memcached(40000))
		s.Duration = 500 * sim.Millisecond
		s.Warmup = 100 * sim.Millisecond
		s.Predictor = kind
		cap := &predInfoCapture{}
		s.Observer = cap
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return cap, res
	}

	// Default CSOAA runs emit nothing: their traces must stay
	// byte-identical to builds that predate the predictor API.
	cap, _ := mk(PredictorCSOAA)
	if len(cap.infos) != 0 {
		t.Fatalf("default run emitted %d PredictorInfo events", len(cap.infos))
	}

	cap, res := mk(PredictorEWMA)
	if len(cap.infos) != 1 {
		t.Fatalf("ewma run emitted %d PredictorInfo events, want 1", len(cap.infos))
	}
	info := cap.infos[0]
	if info.Name != "ewma" {
		t.Errorf("PredictorInfo.Name = %q", info.Name)
	}
	if info.Classes < 2 {
		t.Errorf("PredictorInfo.Classes = %d", info.Classes)
	}
	if res.Policy != "smartharvest" {
		t.Errorf("policy %q, want smartharvest", res.Policy)
	}
}

func TestWithPredictorOption(t *testing.T) {
	var s Scenario
	WithPredictor(PredictorPeriodic)(&s)
	if s.Predictor != PredictorPeriodic {
		t.Fatalf("WithPredictor set %v", s.Predictor)
	}
}

// TestZooPredictorsRunEndToEnd drives each non-default predictor through
// a real (short) scenario via the public Scenario.Predictor path.
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
			s.Predictor = kind
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
