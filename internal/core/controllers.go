package core

import (
	"encoding/json"
	"fmt"
	"io"

	"smartharvest/internal/grammar"
	"smartharvest/internal/learner"
)

// SafeguardMode selects the short-term safeguard response (paper §3.4 and
// Figure 10).
type SafeguardMode int

const (
	// ConservativeSafeguard expands the primaries to one more than their
	// peak usage over the trailing second. The paper's default.
	ConservativeSafeguard SafeguardMode = iota
	// AggressiveSafeguard returns every core to the primaries, trading
	// harvest for complete feedback.
	AggressiveSafeguard
)

var modeNames = grammar.Enum[SafeguardMode]{Pkg: "core", What: "safeguard mode",
	Names: []string{"conservative", "aggressive"}}

func (m SafeguardMode) String() string { return modeNames.String(m) }

// ParseSafeguardMode is the inverse of String.
func ParseSafeguardMode(s string) (SafeguardMode, error) { return modeNames.Parse(s) }

// MarshalText implements encoding.TextMarshaler.
func (m SafeguardMode) MarshalText() ([]byte, error) { return modeNames.MarshalText(m) }

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *SafeguardMode) UnmarshalText(text []byte) error { return modeNames.UnmarshalText(m, text) }

// SmartHarvest is the paper's controller: cost-sensitive multi-class
// classification over the five window features, predicting the next
// window's peak primary core usage.
type SmartHarvest struct {
	alloc int
	fe    *learner.FeatureExtractor
	mask  learner.FeatureMask
	pred  learner.Predictor
	cost  learner.CostFunc
	mode  SafeguardMode

	x, prevX []float64
	costs    []float64
	havePrev bool
}

// SmartHarvestOptions tunes the controller; zero values mean defaults.
type SmartHarvestOptions struct {
	// LearningRate defaults to learner.DefaultLR, kept constant. Ignored
	// when Predictor is set — the factory owns its step sizes.
	LearningRate float64
	// Cost defaults to the skewed cost with UnderPenalty = alloc.
	Cost learner.CostFunc
	// Safeguard defaults to ConservativeSafeguard.
	Safeguard SafeguardMode
	// Features restricts the learner to a subset of the five window
	// features ("min", "max", "avg", "std", "median"); empty means all.
	// Used by the feature-set ablation.
	Features []string
	// Predictor, when non-nil, supplies the peak predictor (typically a
	// learner.Zoo factory). Nil keeps the paper's default: constant-rate
	// CSOAA at LearningRate.
	Predictor learner.Factory
}

// NewSmartHarvest builds the controller for primary allocation `alloc`
// (classes 0..alloc).
func NewSmartHarvest(alloc int, opts SmartHarvestOptions) *SmartHarvest {
	if alloc < 1 {
		panic(fmt.Sprintf("core: bad alloc %d", alloc))
	}
	if opts.LearningRate == 0 {
		opts.LearningRate = learner.DefaultLR
	}
	if opts.Cost == nil {
		opts.Cost = learner.SkewedCost{UnderPenalty: float64(alloc)}
	}
	classes := alloc + 1
	var pred learner.Predictor
	if opts.Predictor != nil {
		pred = opts.Predictor(classes)
		if pred.Classes() != classes {
			panic(fmt.Sprintf("core: predictor %s built %d classes, want %d",
				pred.Name(), pred.Classes(), classes))
		}
	} else {
		pred = learner.NewCSOAAPredictor(classes, learner.NumFeatures, opts.LearningRate)
	}
	s := &SmartHarvest{
		alloc: alloc,
		fe:    learner.NewFeatureExtractor(alloc),
		pred:  pred,
		cost:  opts.Cost,
		mode:  opts.Safeguard,
		x:     make([]float64, learner.NumFeatures),
		prevX: make([]float64, learner.NumFeatures),
		costs: make([]float64, classes),
	}
	if len(opts.Features) > 0 {
		s.mask = learner.NewFeatureMask(opts.Features...)
	}
	// Conservative prior: before any feedback, behave as if the peak is
	// the full allocation, so the cold start cannot starve the primaries.
	s.pred.InitBias(learner.FillCosts(s.costs, s.cost, alloc))
	return s
}

// Name implements Controller.
func (s *SmartHarvest) Name() string { return "smartharvest" }

// Safeguards implements Controller.
func (s *SmartHarvest) Safeguards() bool { return true }

// OnPoll implements Controller; SmartHarvest only acts at window ends.
func (s *SmartHarvest) OnPoll(busy, currentTarget int) (int, bool) { return 0, false }

// Predictor exposes the peak predictor for diagnostics.
func (s *SmartHarvest) Predictor() learner.Predictor { return s.pred }

// OnWindowEnd implements Algorithm 1 lines 12-18. On a safeguard window
// the model is neither trained nor re-featurized (the observed peak is
// censored by the empty buffer), and the assignment is expanded. On a
// normal window the model first learns from the previous prediction's
// features against this window's observed peak — full supervised feedback
// — then predicts the next peak from this window's features.
func (s *SmartHarvest) OnWindowEnd(w Window) int {
	if w.Safeguard {
		if s.mode == AggressiveSafeguard {
			return s.alloc
		}
		t := w.Peak1s + 1
		if t > s.alloc {
			t = s.alloc
		}
		return t
	}
	if s.havePrev {
		s.pred.Update(int64(w.At), s.prevX, w.Peak, learner.FillCosts(s.costs, s.cost, w.Peak))
	}
	s.fe.Compute(w.Samples).Vector(s.x, float64(s.alloc))
	s.mask.Apply(s.x)
	copy(s.prevX, s.x)
	s.havePrev = true
	t := s.pred.Predict(int64(w.At), s.x)
	if t > s.alloc {
		// Classes above the current allocation exist when the model was
		// sized for a larger tenant mix (VM churn); they are not
		// assignable.
		t = s.alloc
	}
	return t
}

// FixedBuffer is the PerfIso-style baseline: keep exactly K idle cores
// above the primaries' instantaneous usage, sliding the buffer reactively
// at every poll.
type FixedBuffer struct {
	alloc int
	k     int
}

// NewFixedBuffer builds the baseline with buffer size k.
func NewFixedBuffer(alloc, k int) *FixedBuffer {
	if alloc < 1 || k < 0 || k > alloc {
		panic(fmt.Sprintf("core: bad FixedBuffer alloc=%d k=%d", alloc, k))
	}
	return &FixedBuffer{alloc: alloc, k: k}
}

// Name implements Controller.
func (f *FixedBuffer) Name() string { return fmt.Sprintf("fixedbuffer-%d", f.k) }

// Safeguards implements Controller: the fixed buffer has no safeguard;
// its reactivity is the whole mechanism.
func (f *FixedBuffer) Safeguards() bool { return false }

// OnPoll implements Controller.
func (f *FixedBuffer) OnPoll(busy, currentTarget int) (int, bool) {
	t := busy + f.k
	if t > f.alloc {
		t = f.alloc
	}
	if t == currentTarget {
		return 0, false
	}
	return t, true
}

// OnWindowEnd implements Controller with the same rule.
func (f *FixedBuffer) OnWindowEnd(w Window) int {
	t, ok := f.OnPoll(w.Busy, w.CurrentTarget)
	if !ok {
		return w.CurrentTarget
	}
	return t
}

// PrevPeak allocates the peak usage observed over the last N windows.
// N=1 is the paper's PrevPeak baseline; N=10 is PrevPeak10, whose
// safeguard returns one core at a time instead of everything.
type PrevPeak struct {
	alloc     int
	n         int
	returnOne bool
	history   []int
}

// NewPrevPeak builds the heuristic baseline over n windows. returnOne
// selects the gentler safeguard response (used by PrevPeak10).
func NewPrevPeak(alloc, n int, returnOne bool) *PrevPeak {
	if alloc < 1 || n < 1 {
		panic(fmt.Sprintf("core: bad PrevPeak alloc=%d n=%d", alloc, n))
	}
	return &PrevPeak{alloc: alloc, n: n, returnOne: returnOne}
}

// Name implements Controller.
func (p *PrevPeak) Name() string {
	if p.n == 1 {
		return "prevpeak"
	}
	return fmt.Sprintf("prevpeak%d", p.n)
}

// Safeguards implements Controller.
func (p *PrevPeak) Safeguards() bool { return true }

// OnPoll implements Controller.
func (p *PrevPeak) OnPoll(busy, currentTarget int) (int, bool) { return 0, false }

// OnWindowEnd implements Controller.
func (p *PrevPeak) OnWindowEnd(w Window) int {
	if w.Safeguard {
		// The observed peak is censored; respond per variant.
		if p.returnOne {
			t := w.CurrentTarget + 1
			if t > p.alloc {
				t = p.alloc
			}
			return t
		}
		return p.alloc
	}
	p.history = append(p.history, w.Peak)
	if len(p.history) > p.n {
		p.history = p.history[len(p.history)-p.n:]
	}
	t := 0
	for _, v := range p.history {
		if v > t {
			t = v
		}
	}
	if t > p.alloc {
		t = p.alloc
	}
	return t
}

// EWMAController is the smoothing baseline from the paper's motivation:
// predict the next peak as an exponentially weighted moving average of
// past peaks plus a fixed margin. Included for the predictor ablation.
type EWMAController struct {
	alloc int
	ewma  *learner.EWMA
}

// NewEWMAController builds the baseline (alpha smoothing, margin cores).
func NewEWMAController(alloc int, alpha float64, margin int) *EWMAController {
	if alloc < 1 {
		panic("core: bad alloc")
	}
	return &EWMAController{alloc: alloc, ewma: learner.NewEWMA(alpha, margin, alloc)}
}

// Name implements Controller.
func (e *EWMAController) Name() string { return "ewma" }

// Safeguards implements Controller.
func (e *EWMAController) Safeguards() bool { return true }

// OnPoll implements Controller.
func (e *EWMAController) OnPoll(busy, currentTarget int) (int, bool) { return 0, false }

// OnWindowEnd implements Controller.
func (e *EWMAController) OnWindowEnd(w Window) int {
	if w.Safeguard {
		t := w.Peak1s + 1
		if t > e.alloc {
			t = e.alloc
		}
		return t
	}
	e.ewma.Observe(w.Peak)
	t := e.ewma.Predict()
	if t > e.alloc {
		t = e.alloc
	}
	return t
}

// NoHarvest keeps every core with the primaries; the ElasticVM runs on
// its minimum only. This is the baseline every latency comparison is
// anchored to.
type NoHarvest struct {
	alloc int
}

// NewNoHarvest builds the null policy.
func NewNoHarvest(alloc int) *NoHarvest {
	if alloc < 1 {
		panic("core: bad alloc")
	}
	return &NoHarvest{alloc: alloc}
}

// Name implements Controller.
func (n *NoHarvest) Name() string { return "noharvest" }

// Safeguards implements Controller.
func (n *NoHarvest) Safeguards() bool { return false }

// OnPoll implements Controller.
func (n *NoHarvest) OnPoll(busy, currentTarget int) (int, bool) { return 0, false }

// OnWindowEnd implements Controller.
func (n *NoHarvest) OnWindowEnd(w Window) int { return n.alloc }

// SetAlloc implements AllocAware. The new allocation must not exceed the
// allocation the controller was constructed for (the model's class count
// is fixed); construct with the machine's maximum when VM churn is
// expected.
func (s *SmartHarvest) SetAlloc(alloc int) {
	if alloc < 1 || alloc >= s.pred.Classes() {
		panic(fmt.Sprintf("core: SmartHarvest SetAlloc(%d) outside [1, %d]",
			alloc, s.pred.Classes()-1))
	}
	s.alloc = alloc
	// Feature history from the old tenant mix describes a different
	// machine state; drop it rather than train across the boundary.
	s.havePrev = false
}

// SetAlloc implements AllocAware.
func (f *FixedBuffer) SetAlloc(alloc int) {
	if alloc < 1 {
		panic("core: bad alloc")
	}
	f.alloc = alloc
	if f.k > alloc {
		f.k = alloc
	}
}

// SetAlloc implements AllocAware. Peak history from the previous tenant
// mix is discarded.
func (p *PrevPeak) SetAlloc(alloc int) {
	if alloc < 1 {
		panic("core: bad alloc")
	}
	p.alloc = alloc
	p.history = p.history[:0]
}

// SetAlloc implements AllocAware.
func (n *NoHarvest) SetAlloc(alloc int) {
	if alloc < 1 {
		panic("core: bad alloc")
	}
	n.alloc = alloc
}

// SetAlloc implements AllocAware. The EWMA level is kept (it tracks load,
// which may persist across a mix change) but future predictions clamp to
// the new allocation.
func (e *EWMAController) SetAlloc(alloc int) {
	if alloc < 1 {
		panic("core: bad alloc")
	}
	e.alloc = alloc
}

// SaveModel writes the predictor's state (its Checkpoint bytes: the
// host agent's -model-file), so a restarted host agent resumes from what
// it learned instead of the conservative prior.
func (s *SmartHarvest) SaveModel(w io.Writer) error {
	data, err := s.pred.Checkpoint()
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// LoadModel replaces the predictor's state with one SaveModel wrote for
// the same predictor, class count and feature count.
func (s *SmartHarvest) LoadModel(r io.Reader) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if err := s.pred.Restore(data); err != nil {
		return err
	}
	s.havePrev = false
	return nil
}

// checkpoint is the serialized crash-recovery state: the predictor's own
// checkpoint payload tagged with its name, plus the
// train-on-previous-features pipeline state (prevX/havePrev) so a
// restored controller makes byte-identical predictions from the next
// window on.
type checkpoint struct {
	Predictor string    `json:"predictor,omitempty"`
	Model     []byte    `json:"model"`
	PrevX     []float64 `json:"prev_x"`
	HavePrev  bool      `json:"have_prev"`
}

// Checkpoint implements Checkpointer.
func (s *SmartHarvest) Checkpoint() ([]byte, error) {
	data, err := s.pred.Checkpoint()
	if err != nil {
		return nil, err
	}
	return json.Marshal(checkpoint{
		Predictor: s.pred.Name(),
		Model:     data,
		PrevX:     s.prevX,
		HavePrev:  s.havePrev,
	})
}

// Restore implements Checkpointer. The checkpoint must come from a
// controller running the same predictor; checkpoints from before the
// predictor tag existed (always CSOAA) are still accepted.
func (s *SmartHarvest) Restore(data []byte) error {
	var cp checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("core: bad checkpoint: %w", err)
	}
	if len(cp.PrevX) != learner.NumFeatures {
		return fmt.Errorf("core: checkpoint has %d features, want %d",
			len(cp.PrevX), learner.NumFeatures)
	}
	if cp.Predictor != "" && cp.Predictor != s.pred.Name() {
		return fmt.Errorf("core: checkpoint is for predictor %q, controller runs %q",
			cp.Predictor, s.pred.Name())
	}
	if err := s.pred.Restore(cp.Model); err != nil {
		return err
	}
	copy(s.prevX, cp.PrevX)
	s.havePrev = cp.HavePrev
	return nil
}

// Reset implements Checkpointer: back to the conservative prior, as a
// restarted agent with no usable checkpoint would come up.
func (s *SmartHarvest) Reset() {
	s.pred.Reset()
	s.pred.InitBias(learner.FillCosts(s.costs, s.cost, s.pred.Classes()-1))
	s.havePrev = false
}
