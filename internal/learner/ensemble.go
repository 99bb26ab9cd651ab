package learner

import (
	"encoding/json"
	"fmt"
)

// Ensemble is a pick-best-of-K combinator: it trains every member on
// every window, tracks an exponentially decayed realized cost per member
// (the cost vector evaluated at what that member actually predicted),
// and serves predictions from the member whose decayed cost is lowest.
// Switching has hysteresis — the active member is only dethroned when it
// trails the best by more than EnsembleSwitchMargin — so a statistical
// tie does not cause prediction flapping.
//
// Regret bound (property-tested): after every update, either
// loss(active) <= min-member loss + EnsembleSwitchMargin, or the
// ensemble has fallen back to its EWMA member because even the best
// member's decayed cost exceeded EnsembleExplodeScale * (classes-1) —
// i.e. when every learner is failing, serve the safeguard-friendly
// baseline that cannot overfit, rather than whichever broken model
// happens to score least badly.
type Ensemble struct {
	classes  int
	members  []Predictor
	losses   []float64 // decayed realized cost per member
	lastPred []int     // each member's prediction from the latest Predict
	active   int
	fallback int // index of the EWMA member
	haveLast bool
	updates  uint64
}

const (
	// EnsembleDecay is the per-update decay on member losses; at 0.98
	// the score horizon is ~50 windows (1.25 s of virtual time).
	EnsembleDecay = 0.98
	// EnsembleSwitchMargin is the hysteresis band: the active member is
	// replaced only when it trails the best by more than this much
	// decayed cost. It is also the regret bound.
	EnsembleSwitchMargin = 0.75
	// EnsembleExplodeScale sets the fallback trigger: when the BEST
	// member's decayed loss exceeds scale * (classes-1), regret tracking
	// has stopped being informative and the ensemble pins itself to the
	// EWMA member.
	EnsembleExplodeScale = 2.0
)

// NewEnsemble builds the default member set: EWMA (the fallback), CSOAA
// (the paper default, initially active), Periodic, and the MLP.
func NewEnsemble(classes int) *Ensemble {
	if classes < 2 {
		panic("learner: need >= 2 classes")
	}
	members := []Predictor{
		NewEWMAPredictor(classes),
		NewCSOAAPredictor(classes, NumFeatures, DefaultLR),
		NewPeriodic(classes),
		NewMLP(classes),
	}
	return &Ensemble{
		classes:  classes,
		members:  members,
		losses:   make([]float64, len(members)),
		lastPred: make([]int, len(members)),
		active:   1, // CSOAA until evidence says otherwise
		fallback: 0,
	}
}

// Name implements Predictor.
func (e *Ensemble) Name() string { return "ensemble" }

// Classes implements Predictor.
func (e *Ensemble) Classes() int { return e.classes }

// Updates implements Predictor.
func (e *Ensemble) Updates() uint64 { return e.updates }

// InitBias implements Predictor: the prior is forwarded to every member.
func (e *Ensemble) InitBias(costs []float64) {
	if e.updates != 0 {
		panic("learner: InitBias after training")
	}
	for _, m := range e.members {
		m.InitBias(costs)
	}
}

// Predict implements Predictor: every member predicts (so its next
// realized cost can be scored), the active member's answer is served.
func (e *Ensemble) Predict(now int64, x []float64) int {
	for i, m := range e.members {
		e.lastPred[i] = m.Predict(now, x)
	}
	e.haveLast = true
	return e.lastPred[e.active]
}

// Update implements Predictor: score each member's latest prediction
// against the realized cost vector, train every member, then reselect.
func (e *Ensemble) Update(now int64, x []float64, peak int, costs []float64) {
	if e.haveLast {
		for i := range e.members {
			p := e.lastPred[i]
			if p < 0 || p >= len(costs) {
				p = len(costs) - 1
			}
			e.losses[i] = EnsembleDecay*e.losses[i] + costs[p]
		}
	}
	for _, m := range e.members {
		m.Update(now, x, peak, costs)
	}
	e.reselect()
	e.updates++
}

// reselect applies the hysteresis switch and the explode fallback.
func (e *Ensemble) reselect() {
	best := 0
	for i := 1; i < len(e.losses); i++ {
		if e.losses[i] < e.losses[best] {
			best = i
		}
	}
	if e.losses[e.active] > e.losses[best]+EnsembleSwitchMargin {
		e.active = best
	}
	if e.losses[best] > EnsembleExplodeScale*float64(e.classes-1) {
		e.active = e.fallback
	}
}

// ensembleState is the serialized Ensemble; member checkpoints nest as
// raw payloads in member order.
type ensembleState struct {
	Version  int               `json:"version"`
	Classes  int               `json:"classes"`
	Active   int               `json:"active"`
	HaveLast bool              `json:"have_last"`
	Losses   []float64         `json:"losses"`
	LastPred []int             `json:"last_pred"`
	Members  []json.RawMessage `json:"members"`
	Updates  uint64            `json:"updates"`
}

// Checkpoint implements Predictor.
func (e *Ensemble) Checkpoint() ([]byte, error) {
	st := ensembleState{
		Version: modelVersion, Classes: e.classes, Active: e.active,
		HaveLast: e.haveLast, Losses: e.losses, LastPred: e.lastPred,
		Updates: e.updates,
		Members: make([]json.RawMessage, len(e.members)),
	}
	for i, m := range e.members {
		data, err := m.Checkpoint()
		if err != nil {
			return nil, fmt.Errorf("learner: checkpointing ensemble member %s: %w", m.Name(), err)
		}
		st.Members[i] = data
	}
	return json.Marshal(st)
}

// Restore implements Predictor.
func (e *Ensemble) Restore(data []byte) error {
	var st ensembleState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("learner: decoding ensemble checkpoint: %w", err)
	}
	if st.Version != modelVersion {
		return fmt.Errorf("learner: unsupported ensemble checkpoint version %d", st.Version)
	}
	if st.Classes != e.classes {
		return fmt.Errorf("learner: ensemble checkpoint has %d classes, want %d", st.Classes, e.classes)
	}
	if len(st.Members) != len(e.members) || len(st.Losses) != len(e.members) || len(st.LastPred) != len(e.members) {
		return fmt.Errorf("learner: ensemble checkpoint has %d members, want %d",
			len(st.Members), len(e.members))
	}
	if st.Active < 0 || st.Active >= len(e.members) {
		return fmt.Errorf("learner: ensemble checkpoint active member %d out of range", st.Active)
	}
	for i, m := range e.members {
		if err := m.Restore(st.Members[i]); err != nil {
			return fmt.Errorf("learner: restoring ensemble member %s: %w", m.Name(), err)
		}
	}
	e.active = st.Active
	e.haveLast = st.HaveLast
	copy(e.losses, st.Losses)
	copy(e.lastPred, st.LastPred)
	e.updates = st.Updates
	return nil
}

// Reset implements Predictor.
func (e *Ensemble) Reset() {
	for i, m := range e.members {
		m.Reset()
		e.losses[i] = 0
		e.lastPred[i] = 0
	}
	e.active = 1
	e.haveLast = false
	e.updates = 0
}

var _ Predictor = (*Ensemble)(nil)
