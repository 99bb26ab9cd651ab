package learner

import (
	"encoding/json"
	"fmt"
	"math"
)

// MLP is a small online gradient predictor: one tanh hidden layer
// between the window features and per-class cost outputs, trained by
// plain SGD on squared cost error — the "small neural model over
// conceptual VM features" family of arXiv 1811.04731, shrunk to an
// online learner cheap enough for a 25 ms window budget. Compared to
// CSOAA's linear scorers it can represent interactions between features
// (e.g. "high max AND high std"), at the price of slower convergence.
//
// Weight initialization is derived from a fixed splitmix64 seed, so two
// MLPs with the same shape start bit-identical and remain so under the
// same update sequence (the Predictor determinism contract).
type MLP struct {
	classes int
	nfeat   int
	hidden  int
	lr      float64
	seed    uint64
	w1      [][]float64 // hidden x (1+nfeat): input→hidden, bias first
	w2      [][]float64 // classes x (1+hidden): hidden→cost, bias first
	h       []float64   // scratch: hidden activations
	out     []float64   // scratch: per-class cost estimates
	dh      []float64   // scratch: hidden-layer error terms
	updates uint64
}

const (
	mlpHidden = 8
	mlpLR     = 0.05
	mlpSeed   = 0x9E3779B97F4A7C15
)

// NewMLP builds the default-shaped MLP over the five window features.
func NewMLP(classes int) *MLP { return NewMLPShape(classes, NumFeatures, mlpHidden, mlpLR) }

// NewMLPShape builds an MLP with an explicit hidden width and step size.
func NewMLPShape(classes, nfeat, hidden int, lr float64) *MLP {
	if classes < 2 {
		panic("learner: need >= 2 classes")
	}
	if nfeat < 1 {
		panic("learner: need at least one feature")
	}
	if hidden < 1 {
		panic("learner: need at least one hidden unit")
	}
	if lr <= 0 || lr > 1 {
		panic("learner: learning rate out of (0, 1]")
	}
	m := &MLP{
		classes: classes, nfeat: nfeat, hidden: hidden, lr: lr, seed: mlpSeed,
		h:   make([]float64, hidden),
		out: make([]float64, classes),
		dh:  make([]float64, hidden),
	}
	m.initWeights()
	return m
}

// initWeights gives the input layer small seeded-random weights (to
// break hidden-unit symmetry) and zeroes the output layer, so the
// untrained network scores every class 0 and the high tie-break predicts
// the conservative maximum; InitBias then shapes the output biases into
// the prior cost curve.
func (m *MLP) initWeights() {
	s := m.seed
	scale := 1.0 / math.Sqrt(float64(m.nfeat+1))
	m.w1 = make([][]float64, m.hidden)
	for j := range m.w1 {
		row := make([]float64, m.nfeat+1)
		for i := range row {
			// Uniform in [-scale, scale) from the splitmix64 stream.
			u := float64(splitmix64(&s)>>11) / (1 << 53)
			row[i] = (2*u - 1) * scale
		}
		m.w1[j] = row
	}
	m.w2 = make([][]float64, m.classes)
	for c := range m.w2 {
		m.w2[c] = make([]float64, m.hidden+1)
	}
}

// splitmix64 advances the state and returns the next value of the
// splitmix64 stream (public-domain constants from Vigna's reference).
func splitmix64(s *uint64) uint64 {
	*s += 0x9E3779B97F4A7C15
	z := *s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// Name implements Predictor.
func (m *MLP) Name() string { return "mlp" }

// Classes implements Predictor.
func (m *MLP) Classes() int { return m.classes }

// Updates implements Predictor.
func (m *MLP) Updates() uint64 { return m.updates }

// InitBias implements Predictor: seeds the output-layer biases with the
// prior cost vector, like CSOAA.InitBias seeds its linear biases.
func (m *MLP) InitBias(costs []float64) {
	if len(costs) != m.classes {
		panic("learner: cost vector length mismatch")
	}
	if m.updates != 0 {
		panic("learner: InitBias after training")
	}
	for c, v := range costs {
		m.w2[c][0] = v
	}
}

// forward fills m.h and m.out from x.
func (m *MLP) forward(x []float64) {
	for j := 0; j < m.hidden; j++ {
		w := m.w1[j]
		s := w[0]
		for i, v := range x {
			s += w[i+1] * v
		}
		m.h[j] = math.Tanh(s)
	}
	for c := 0; c < m.classes; c++ {
		w := m.w2[c]
		s := w[0]
		for j, hv := range m.h {
			s += w[j+1] * hv
		}
		m.out[c] = s
	}
}

// Predict implements Predictor: argmin estimated cost, ties breaking
// toward the higher (conservative) class as in CSOAA.
func (m *MLP) Predict(now int64, x []float64) int {
	if len(x) != m.nfeat {
		panic("learner: feature vector length mismatch")
	}
	m.forward(x)
	best := m.classes - 1
	bestScore := m.out[best]
	for c := m.classes - 2; c >= 0; c-- {
		if m.out[c] < bestScore {
			best, bestScore = c, m.out[c]
		}
	}
	return best
}

// Update implements Predictor: one backpropagated SGD step of squared
// cost error on every class output.
func (m *MLP) Update(now int64, x []float64, peak int, costs []float64) {
	if len(x) != m.nfeat {
		panic("learner: feature vector length mismatch")
	}
	if len(costs) != m.classes {
		panic("learner: cost vector length mismatch")
	}
	m.forward(x)
	for j := range m.dh {
		m.dh[j] = 0
	}
	for c, target := range costs {
		err := m.out[c] - target
		w := m.w2[c]
		// Accumulate hidden error terms against the pre-step weights.
		for j := 0; j < m.hidden; j++ {
			m.dh[j] += err * w[j+1]
		}
		w[0] -= m.lr * err
		for j, hv := range m.h {
			w[j+1] -= m.lr * err * hv
		}
	}
	for j := 0; j < m.hidden; j++ {
		d := m.dh[j] * (1 - m.h[j]*m.h[j])
		w := m.w1[j]
		w[0] -= m.lr * d
		for i, v := range x {
			w[i+1] -= m.lr * d * v
		}
	}
	m.updates++
}

// mlpState is the serialized MLP.
type mlpState struct {
	Version int         `json:"version"`
	Classes int         `json:"classes"`
	NFeat   int         `json:"nfeat"`
	Hidden  int         `json:"hidden"`
	LR      float64     `json:"lr"`
	Seed    uint64      `json:"seed"`
	W1      [][]float64 `json:"w1"`
	W2      [][]float64 `json:"w2"`
	Updates uint64      `json:"updates"`
}

// Checkpoint implements Predictor.
func (m *MLP) Checkpoint() ([]byte, error) {
	return json.Marshal(mlpState{
		Version: modelVersion, Classes: m.classes, NFeat: m.nfeat,
		Hidden: m.hidden, LR: m.lr, Seed: m.seed,
		W1: m.w1, W2: m.w2, Updates: m.updates,
	})
}

// Restore implements Predictor.
func (m *MLP) Restore(data []byte) error {
	var st mlpState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("learner: decoding mlp checkpoint: %w", err)
	}
	if st.Version != modelVersion {
		return fmt.Errorf("learner: unsupported mlp checkpoint version %d", st.Version)
	}
	if st.Classes != m.classes || st.NFeat != m.nfeat || st.Hidden != m.hidden {
		return fmt.Errorf("learner: mlp checkpoint shape %d/%d/%d, want %d/%d/%d",
			st.Classes, st.NFeat, st.Hidden, m.classes, m.nfeat, m.hidden)
	}
	if st.LR <= 0 || st.LR > 1 {
		return fmt.Errorf("learner: mlp checkpoint lr %v out of (0, 1]", st.LR)
	}
	if err := checkRows("mlp w1", st.W1, st.Hidden, st.NFeat+1); err != nil {
		return err
	}
	if err := checkRows("mlp w2", st.W2, st.Classes, st.Hidden+1); err != nil {
		return err
	}
	m.lr = st.LR
	m.seed = st.Seed
	m.w1 = st.W1
	m.w2 = st.W2
	m.updates = st.Updates
	return nil
}

// Reset implements Predictor: re-derive the initial weights from the
// same seed, so Reset + identical updates reproduces the original run.
func (m *MLP) Reset() {
	m.initWeights()
	m.updates = 0
}

var _ Predictor = (*MLP)(nil)
