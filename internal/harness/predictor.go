package harness

import (
	"smartharvest/internal/core"
	"smartharvest/internal/grammar"
	"smartharvest/internal/learner"
)

// PredictorKind selects the SmartHarvest peak predictor, mirroring how
// Mechanism and BatchKind select the reassignment mechanism and batch
// workload. Its values index learner.Zoo. The zero value is the paper's
// CSOAA learner, so existing scenarios are untouched.
type PredictorKind int

const (
	// PredictorCSOAA is the paper's default: constant-rate cost-sensitive
	// one-against-all over the five window features.
	PredictorCSOAA PredictorKind = iota
	// PredictorAdaGrad is CSOAA with per-weight adaptive step sizes.
	PredictorAdaGrad
	// PredictorEWMA is the smoothed-recent-peak baseline.
	PredictorEWMA
	// PredictorPeriodic detects per-VM periodic load patterns and
	// predicts from a phase-bucketed peak profile.
	PredictorPeriodic
	// PredictorMLP is a small online-gradient neural predictor (one tanh
	// hidden layer over the window features).
	PredictorMLP
	// PredictorEnsemble picks the best of {EWMA, CSOAA, Periodic, MLP}
	// by decayed realized cost, falling back to EWMA when every member's
	// regret explodes.
	PredictorEnsemble
)

// predictors names each kind by its learner.Zoo entry, whose order the
// constants above follow.
var predictors = grammar.Enum[PredictorKind]{Pkg: "harness", Err: ErrUnknownPredictor,
	Names: learner.ZooNames()}

func (p PredictorKind) String() string { return predictors.String(p) }

// ParsePredictor is the inverse of String. Unknown names return an error
// wrapping ErrUnknownPredictor, testable with errors.Is.
func ParsePredictor(s string) (PredictorKind, error) { return predictors.Parse(s) }

// MarshalText implements encoding.TextMarshaler.
func (p PredictorKind) MarshalText() ([]byte, error) { return predictors.MarshalText(p) }

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *PredictorKind) UnmarshalText(text []byte) error { return predictors.UnmarshalText(p, text) }

// factory returns p's learner.Zoo factory, or nil for the default CSOAA
// kind, which core.NewSmartHarvest builds itself at the options'
// LearningRate. An undeclared kind is a programming error and panics.
func (p PredictorKind) factory() learner.Factory {
	if !predictors.Valid(p) {
		panic("harness: undeclared " + p.String())
	}
	if p == PredictorCSOAA {
		return nil
	}
	return learner.Zoo[p].New
}

// SmartHarvestPredictorFactory builds a SmartHarvest controller factory
// running the selected predictor: the one way to run a scenario with a
// peak predictor other than the default CSOAA. It panics on a kind that
// is not one of the Predictor constants.
func SmartHarvestPredictorFactory(kind PredictorKind, opts core.SmartHarvestOptions) ControllerFactory {
	opts.Predictor = kind.factory()
	return func(alloc int) core.Controller {
		return core.NewSmartHarvest(alloc, opts)
	}
}
