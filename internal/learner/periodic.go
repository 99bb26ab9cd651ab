package learner

import (
	"encoding/json"
	"fmt"
	"math"
)

// Periodic is a periodicity-aware peak predictor in the spirit of
// large-scale workload characterization (arXiv 2405.07250): many
// production VMs show strong time-of-day / time-of-scale patterns, and
// for those a per-phase peak profile beats a feature regression. Scaled
// to this simulator's compressed clock, Periodic maintains one peak
// profile per candidate period (phase-bucketed), tracks a decayed
// prediction error per candidate, and predicts from the currently
// best-scoring candidate's profile.
//
// Profiles learn asymmetrically — jump up to a new peak instantly, decay
// down slowly — so a recurring burst is remembered at full height long
// after a single quiet cycle, which is the conservative direction for
// harvesting.
type Periodic struct {
	classes int
	periods []int64     // candidate period lengths, ns
	profile [][]float64 // per candidate: peak profile per phase bucket
	errs    []float64   // per candidate: decayed |prediction - peak|
	updates uint64
}

const (
	// periodicBuckets phase-buckets each candidate period.
	periodicBuckets = 32
	// periodicWarm is how many updates Periodic stays at the
	// conservative maximum before trusting its profiles.
	periodicWarm = 64
	// periodicDown is the downward smoothing factor for profile decay
	// (upward moves are immediate).
	periodicDown = 0.9
	// periodicErrDecay smooths the per-candidate error score.
	periodicErrDecay = 0.97
)

// defaultPeriods are the candidate periods, in ns. The simulator's
// workloads compress "diurnal" structure into second-scale cycles
// (25 ms windows), so candidates span 250 ms to 4 s — 10 to 160 windows.
var defaultPeriods = []int64{
	250_000_000,
	500_000_000,
	1_000_000_000,
	2_000_000_000,
	4_000_000_000,
}

// NewPeriodic builds a periodicity-aware predictor over classes
// 0..classes-1 with the default candidate periods.
func NewPeriodic(classes int) *Periodic {
	if classes < 2 {
		panic("learner: need >= 2 classes")
	}
	p := &Periodic{
		classes: classes,
		periods: append([]int64(nil), defaultPeriods...),
		profile: make([][]float64, len(defaultPeriods)),
		errs:    make([]float64, len(defaultPeriods)),
	}
	for i := range p.profile {
		p.profile[i] = make([]float64, periodicBuckets)
	}
	return p
}

// Name implements Predictor.
func (p *Periodic) Name() string { return "periodic" }

// Classes implements Predictor.
func (p *Periodic) Classes() int { return p.classes }

// Updates implements Predictor.
func (p *Periodic) Updates() uint64 { return p.updates }

// InitBias implements Predictor. Periodic has no bias weights — it is
// already conservative until warm — but late seeding still panics.
func (p *Periodic) InitBias(costs []float64) {
	if p.updates != 0 {
		panic("learner: InitBias after training")
	}
}

// bucket maps a timestamp to the phase bucket of candidate c.
func (p *Periodic) bucket(c int, now int64) int {
	period := p.periods[c]
	phase := now % period
	if phase < 0 {
		phase += period
	}
	return int(phase * periodicBuckets / period)
}

// predictCandidate is candidate c's forecast for the window after now:
// the taller of the current and next phase bucket, rounded up.
func (p *Periodic) predictCandidate(c int, now int64) int {
	b := p.bucket(c, now)
	v := p.profile[c][b]
	if n := p.profile[c][(b+1)%periodicBuckets]; n > v {
		v = n
	}
	pred := int(math.Ceil(v))
	if pred > p.classes-1 {
		pred = p.classes - 1
	}
	if pred < 0 {
		pred = 0
	}
	return pred
}

// active returns the candidate with the lowest decayed error (ties break
// toward the shortest period, which adapts fastest).
func (p *Periodic) active() int {
	best := 0
	for c := 1; c < len(p.periods); c++ {
		if p.errs[c] < p.errs[best] {
			best = c
		}
	}
	return best
}

// Predict implements Predictor. The feature vector is ignored; the
// forecast comes from the active candidate's phase profile.
func (p *Periodic) Predict(now int64, x []float64) int {
	if p.updates < periodicWarm {
		return p.classes - 1
	}
	return p.predictCandidate(p.active(), now)
}

// Update implements Predictor: score every candidate against the
// observed peak, then fold the peak into each profile.
func (p *Periodic) Update(now int64, x []float64, peak int, costs []float64) {
	fp := float64(peak)
	for c := range p.periods {
		err := math.Abs(float64(p.predictCandidate(c, now)) - fp)
		p.errs[c] = periodicErrDecay*p.errs[c] + (1-periodicErrDecay)*err
		b := p.bucket(c, now)
		if fp >= p.profile[c][b] {
			p.profile[c][b] = fp
		} else {
			p.profile[c][b] = periodicDown*p.profile[c][b] + (1-periodicDown)*fp
		}
	}
	p.updates++
}

// periodicState is the serialized Periodic predictor.
type periodicState struct {
	Version int         `json:"version"`
	Classes int         `json:"classes"`
	Periods []int64     `json:"periods"`
	Profile [][]float64 `json:"profile"`
	Errs    []float64   `json:"errs"`
	Updates uint64      `json:"updates"`
}

// Checkpoint implements Predictor.
func (p *Periodic) Checkpoint() ([]byte, error) {
	return json.Marshal(periodicState{
		Version: modelVersion, Classes: p.classes, Periods: p.periods,
		Profile: p.profile, Errs: p.errs, Updates: p.updates,
	})
}

// Restore implements Predictor.
func (p *Periodic) Restore(data []byte) error {
	var st periodicState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("learner: decoding periodic checkpoint: %w", err)
	}
	if st.Version != modelVersion {
		return fmt.Errorf("learner: unsupported periodic checkpoint version %d", st.Version)
	}
	if st.Classes != p.classes {
		return fmt.Errorf("learner: periodic checkpoint has %d classes, want %d", st.Classes, p.classes)
	}
	if len(st.Periods) != len(p.periods) || len(st.Errs) != len(p.periods) {
		return fmt.Errorf("learner: periodic checkpoint has %d candidates, want %d",
			len(st.Periods), len(p.periods))
	}
	if err := checkRows("periodic profile", st.Profile, len(p.periods), periodicBuckets); err != nil {
		return err
	}
	for c, period := range st.Periods {
		if period <= 0 {
			return fmt.Errorf("learner: periodic checkpoint candidate %d has period %d", c, period)
		}
	}
	p.periods = st.Periods
	p.profile = st.Profile
	p.errs = st.Errs
	p.updates = st.Updates
	return nil
}

// Reset implements Predictor.
func (p *Periodic) Reset() {
	for c := range p.profile {
		for b := range p.profile[c] {
			p.profile[c][b] = 0
		}
		p.errs[c] = 0
	}
	p.updates = 0
}

var _ Predictor = (*Periodic)(nil)
