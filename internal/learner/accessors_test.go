package learner

// Accessors that only this package's tests read.

// Active returns the index of the member currently serving predictions.
func (e *Ensemble) Active() int { return e.active }

// ActiveName returns the serving member's zoo name.
func (e *Ensemble) ActiveName() string { return e.members[e.active].Name() }

// Fallback returns the index of the EWMA fallback member.
func (e *Ensemble) Fallback() int { return e.fallback }

// Losses returns a copy of the decayed per-member losses.
func (e *Ensemble) Losses() []float64 { return append([]float64(nil), e.losses...) }

// Members returns the member predictors (shared, not copies).
func (e *Ensemble) Members() []Predictor { return e.members }
