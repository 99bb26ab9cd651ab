package harness

import (
	"errors"
	"fmt"
)

// Sentinel validation errors. Every error returned by Run for a malformed
// Scenario wraps exactly one of these (inside a *ScenarioError), so
// callers can dispatch with errors.Is without parsing messages.
var (
	// ErrNoPrimaries: the scenario declares no primary workloads.
	ErrNoPrimaries = errors.New("no primary workloads")
	// ErrBadDuration: Duration or Warmup is negative, or their sum
	// overflows the simulated clock.
	ErrBadDuration = errors.New("bad duration")
	// ErrBadWindow: the learning window or poll interval is invalid
	// (either non-positive, or Window < PollInterval).
	ErrBadWindow = errors.New("bad window")
	// ErrBadChurn: a churn event is malformed (departure index out of
	// range, or the schedule would leave no primary VMs).
	ErrBadChurn = errors.New("bad churn schedule")
	// ErrUnknownBatch: Batch is not one of the declared BatchKind values.
	ErrUnknownBatch = errors.New("unknown batch kind")
	// ErrUnknownPredictor: from ParsePredictor, the name is not a
	// registered predictor.
	ErrUnknownPredictor = errors.New("unknown predictor")
)

// ScenarioError reports which scenario and field failed validation. It
// wraps one of the sentinel errors above; use errors.Is to test the kind
// and errors.As to recover the detail.
type ScenarioError struct {
	// Scenario is the offending scenario's name.
	Scenario string
	// Field names the Scenario field that failed.
	Field string
	// Detail elaborates (may be empty).
	Detail string
	// Err is the sentinel the failure wraps.
	Err error
}

func (e *ScenarioError) Error() string {
	msg := fmt.Sprintf("harness: scenario %q: %s: %v", e.Scenario, e.Field, e.Err)
	if e.Detail != "" {
		msg += " (" + e.Detail + ")"
	}
	return msg
}

func (e *ScenarioError) Unwrap() error { return e.Err }

// scenarioErr builds a *ScenarioError for s.
func (s *Scenario) scenarioErr(field string, sentinel error, detailf string, args ...any) error {
	return &ScenarioError{
		Scenario: s.Name,
		Field:    field,
		Detail:   fmt.Sprintf(detailf, args...),
		Err:      sentinel,
	}
}
