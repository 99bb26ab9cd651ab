package learner

import (
	"encoding/json"
	"fmt"
)

// Predictor is the full agent↔learner contract: everything the
// SmartHarvest controller needs from a peak predictor — prediction,
// training, the conservative-prior seeding, and the checkpoint/restore/
// reset round-trip the crash-restart resilience path drives, so the
// controller is not hard-wired to CSOAA.
//
// The contract every implementation must honor:
//
//   - Determinism: predictions and internal state are a pure function of
//     the construction parameters and the sequence of Predict/Update/
//     InitBias/Restore calls. No wall clocks, no global RNG — any
//     randomness (e.g. weight init) derives from a fixed seed, so two
//     predictors fed the same call sequence stay bit-identical. This is
//     what makes run traces byte-identical across parallelism settings.
//   - Zero-alloc hot path: Predict and Update must not allocate once the
//     predictor is constructed (scratch buffers are preallocated). The
//     agent calls both every learning window (25 ms of virtual time);
//     guarded by TestPredictorsZeroAlloc.
//   - Conservatism before feedback: an untrained predictor (after
//     construction, InitBias with the full-allocation prior, or Reset +
//     InitBias) must predict the maximum class, so a cold start cannot
//     starve the primary VMs.
//   - Checkpoint/Restore: Restore(Checkpoint()) into a same-shaped fresh
//     predictor must reproduce bit-identical predictions and training
//     from that point on. Restore rejects malformed or mismatched
//     payloads with an error rather than guessing.
//
// now is virtual time in nanoseconds since the run started (time-aware
// predictors like Periodic key on it; others ignore it). peak is the
// observed window peak in cores — the supervised label — and costs is
// the per-class cost vector the controller's CostFunc assigned to that
// peak (costs[peak] is minimal). Cost-based learners train on costs;
// level-based learners train on peak.
type Predictor interface {
	// Name returns the zoo name ("csoaa", "ewma", ...).
	Name() string
	// Classes returns the number of predictable classes (alloc+1).
	Classes() int
	// Updates returns how many training updates have been applied.
	Updates() uint64
	// InitBias seeds the untrained predictor with a prior cost vector
	// (see CSOAA.InitBias); implementations without biases may ignore it
	// but must still panic after training, keeping misuse loud.
	InitBias(costs []float64)
	// Predict returns the predicted peak class for the next window from
	// the current window's feature vector.
	Predict(now int64, x []float64) int
	// Update trains on one window: feature vector x (from the previous
	// window), the observed peak, and the per-class cost vector for that
	// peak.
	Update(now int64, x []float64, peak int, costs []float64)
	// Checkpoint serializes the full learner state.
	Checkpoint() ([]byte, error)
	// Restore replaces the learner state with a checkpoint taken from a
	// same-shaped predictor.
	Restore(data []byte) error
	// Reset discards all learned state, back to freshly constructed
	// (the caller re-seeds the conservative prior via InitBias).
	Reset()
}

// CSOAAPredictor adapts CSOAA, in either variant, to the Predictor
// contract: Predict and Update drop the arguments the classifier does not
// use, and the other methods are the classifier's own.
type CSOAAPredictor struct {
	*CSOAA
}

// NewCSOAAPredictor builds the paper's default predictor: constant-rate
// CSOAA over the five window features.
func NewCSOAAPredictor(classes, nfeat int, lr float64) *CSOAAPredictor {
	return &CSOAAPredictor{NewCSOAA(classes, nfeat, lr)}
}

// NewAdaGradPredictor builds CSOAA with AdaGrad per-weight step sizes,
// lr being the base step.
func NewAdaGradPredictor(classes, nfeat int, lr float64) *CSOAAPredictor {
	c := NewCSOAA(classes, nfeat, lr)
	c.gradSq = zeroRows(classes, nfeat+1)
	return &CSOAAPredictor{c}
}

// Predict implements Predictor. The model is time-free; now is ignored.
func (p *CSOAAPredictor) Predict(now int64, x []float64) int { return p.CSOAA.Predict(x) }

// Update implements Predictor: cost-sensitive regression on the cost
// vector (the observed peak is implied by costs).
func (p *CSOAAPredictor) Update(now int64, x []float64, peak int, costs []float64) {
	p.CSOAA.Update(x, costs)
}

// EWMAPredictor adapts the EWMA baseline to the Predictor contract. It
// ignores the feature vector entirely — the smoothed recent peak level
// plus a fixed margin is the whole model — which is exactly why it makes
// a robust ensemble fallback: it cannot overfit, and it degrades
// gracefully on workloads the learners mispredict.
type EWMAPredictor struct {
	e       *EWMA
	classes int
	updates uint64
}

// EWMAAlpha and EWMAMargin are the stock EWMA baseline constants, which
// the "ewma" policy of cmd/smartharvest and cmd/hostagent runs too.
const (
	EWMAAlpha  = 0.3
	EWMAMargin = 1
)

// NewEWMAPredictor builds the EWMA predictor over classes 0..classes-1.
func NewEWMAPredictor(classes int) *EWMAPredictor {
	if classes < 2 {
		panic("learner: need >= 2 classes")
	}
	return &EWMAPredictor{e: NewEWMA(EWMAAlpha, EWMAMargin, classes-1), classes: classes}
}

// Name implements Predictor.
func (p *EWMAPredictor) Name() string { return "ewma" }

// Classes implements Predictor.
func (p *EWMAPredictor) Classes() int { return p.classes }

// Updates implements Predictor.
func (p *EWMAPredictor) Updates() uint64 { return p.updates }

// InitBias implements Predictor. EWMA has no biases — it already
// predicts the maximum class before any observation — but late seeding
// still panics per the contract.
func (p *EWMAPredictor) InitBias(costs []float64) {
	if p.updates != 0 {
		panic("learner: InitBias after training")
	}
}

// Predict implements Predictor (features and time ignored).
func (p *EWMAPredictor) Predict(now int64, x []float64) int { return p.e.Predict() }

// Update implements Predictor: observe the window peak.
func (p *EWMAPredictor) Update(now int64, x []float64, peak int, costs []float64) {
	p.e.Observe(peak)
	p.updates++
}

// ewmaState is the serialized EWMAPredictor.
type ewmaState struct {
	Version int     `json:"version"`
	Classes int     `json:"classes"`
	Level   float64 `json:"level"`
	Seen    bool    `json:"seen"`
	Updates uint64  `json:"updates"`
}

// Checkpoint implements Predictor.
func (p *EWMAPredictor) Checkpoint() ([]byte, error) {
	return json.Marshal(ewmaState{
		Version: modelVersion, Classes: p.classes,
		Level: p.e.level, Seen: p.e.seen, Updates: p.updates,
	})
}

// Restore implements Predictor.
func (p *EWMAPredictor) Restore(data []byte) error {
	var st ewmaState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("learner: decoding ewma checkpoint: %w", err)
	}
	if st.Version != modelVersion {
		return fmt.Errorf("learner: unsupported ewma checkpoint version %d", st.Version)
	}
	if st.Classes != p.classes {
		return fmt.Errorf("learner: ewma checkpoint has %d classes, want %d", st.Classes, p.classes)
	}
	p.e.level = st.Level
	p.e.seen = st.Seen
	p.updates = st.Updates
	return nil
}

// Reset implements Predictor.
func (p *EWMAPredictor) Reset() {
	p.e = NewEWMA(EWMAAlpha, EWMAMargin, p.classes-1)
	p.updates = 0
}

var (
	_ Predictor = (*CSOAAPredictor)(nil)
	_ Predictor = (*EWMAPredictor)(nil)
)
