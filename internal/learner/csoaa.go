package learner

import (
	"fmt"
	"math"
)

// CSOAA is a cost-sensitive one-against-all multi-class classifier, the
// same reduction the paper uses from Vowpal Wabbit: one linear regressor
// per class predicts that class's cost from the feature vector, and
// prediction selects the class with the lowest predicted cost. Training
// regresses each class's output toward its observed cost with plain SGD
// on squared loss.
//
// With AdaGrad accumulators (the "adagrad" zoo entry) each weight's step
// instead shrinks with the squared gradient accumulated on that
// coordinate, as Vowpal Wabbit's --adaptive does: it converges faster
// early but responds slower to behaviour changes late in a long run —
// the trade-off the paper's constant rate avoids. It exists for the
// predictor ablation.
//
// Classes are core counts 0..NumClasses-1 for the primary VMs' predicted
// peak. Prediction and update are O(classes × features) with no
// allocation, giving the microsecond-scale learning operations of the
// paper's Table 3.
type CSOAA struct {
	classes int
	nfeat   int
	lr      float64
	// weights[c] holds class c's regressor: bias followed by one weight
	// per feature.
	weights [][]float64
	// gradSq, when non-nil, holds AdaGrad's accumulated squared gradient
	// for every weight, shaped like weights.
	gradSq  [][]float64
	updates uint64
}

// NewCSOAA builds a classifier over `classes` classes and feature vectors
// of length nfeat, with SGD learning rate lr (the paper uses VW's default
// 0.1, kept constant so learning continues forever).
//
// Deprecated for harvesting-path construction: the agent consumes the
// Predictor interface, so new call sites should go through the zoo
// (Zoo's "csoaa" entry) or NewCSOAAPredictor, which add
// checkpointing and the contract tests for free. Constructing the bare
// model remains supported for standalone classification use.
func NewCSOAA(classes, nfeat int, lr float64) *CSOAA {
	if classes < 2 {
		panic(fmt.Sprintf("learner: need >= 2 classes, got %d", classes))
	}
	if nfeat < 1 {
		panic("learner: need at least one feature")
	}
	if lr <= 0 || lr > 1 {
		panic(fmt.Sprintf("learner: learning rate %v out of (0,1]", lr))
	}
	return &CSOAA{classes: classes, nfeat: nfeat, lr: lr, weights: zeroRows(classes, nfeat+1)}
}

// zeroRows allocates n zeroed rows of the given width.
func zeroRows(n, width int) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, width)
	}
	return rows
}

// Classes returns the number of classes.
func (c *CSOAA) Classes() int { return c.classes }

// InitBias seeds each class regressor's bias term with a prior cost,
// before any training. Seeding with the cost of "the peak is the maximum
// class" makes an untrained model maximally conservative: it predicts the
// full allocation on day one and learns downward from real feedback,
// instead of emitting arbitrary early predictions that starve the
// primaries during the cold start.
func (c *CSOAA) InitBias(costs []float64) {
	if len(costs) != c.classes {
		panic("learner: cost vector length mismatch")
	}
	if c.updates != 0 {
		panic("learner: InitBias after training")
	}
	for cl, v := range costs {
		c.weights[cl][0] = v
	}
}

// Updates returns how many training updates have been applied.
func (c *CSOAA) Updates() uint64 { return c.updates }

// score returns class cl's predicted cost for feature vector x.
func (c *CSOAA) score(cl int, x []float64) float64 {
	w := c.weights[cl]
	s := w[0]
	for i, v := range x {
		s += w[i+1] * v
	}
	return s
}

// Predict returns the class with the lowest predicted cost. Ties break
// toward the higher class: with an untrained (all-zero) model every class
// ties, and starting from the largest core count is the conservative,
// primary-protecting choice.
func (c *CSOAA) Predict(x []float64) int {
	if len(x) != c.nfeat {
		panic("learner: feature vector length mismatch")
	}
	best := c.classes - 1
	bestScore := c.score(best, x)
	for cl := c.classes - 2; cl >= 0; cl-- {
		if s := c.score(cl, x); s < bestScore {
			best, bestScore = cl, s
		}
	}
	return best
}

// Update trains every per-class regressor toward its observed cost for
// feature vector x: one constant-rate SGD step, or one AdaGrad step when
// the model carries accumulators. costs must have length Classes().
func (c *CSOAA) Update(x []float64, costs []float64) {
	if len(x) != c.nfeat {
		panic("learner: feature vector length mismatch")
	}
	if len(costs) != c.classes {
		panic("learner: cost vector length mismatch")
	}
	for cl, target := range costs {
		w := c.weights[cl]
		err := target - c.score(cl, x)
		if c.gradSq == nil {
			g := c.lr * err
			w[0] += g
			for i, v := range x {
				w[i+1] += g * v
			}
			continue
		}
		// Gradient of squared loss wrt weight i is -err * x_i.
		g := c.gradSq[cl]
		gb := -err
		g[0] += gb * gb
		w[0] += c.lr * err / math.Sqrt(g[0]+1e-8)
		for i, v := range x {
			gi := -err * v
			g[i+1] += gi * gi
			if gi != 0 {
				w[i+1] += c.lr * err * v / math.Sqrt(g[i+1]+1e-8)
			}
		}
	}
	c.updates++
}

// Reset zeroes every weight, accumulator and the update count, back to
// freshly constructed.
func (c *CSOAA) Reset() {
	for cl := range c.weights {
		clear(c.weights[cl])
		if c.gradSq != nil {
			clear(c.gradSq[cl])
		}
	}
	c.updates = 0
}

// EWMA is the simple exponentially-weighted-moving-average peak predictor
// the paper's motivation section dismisses: it tracks the recent peak
// level but cannot anticipate sharp bursts. Kept as a baseline for the
// predictor ablation.
type EWMA struct {
	alpha  float64
	margin int
	level  float64
	seen   bool
	max    int
}

// NewEWMA builds an EWMA predictor with smoothing alpha in (0, 1], a
// fixed safety margin in cores, and a class cap (max core count).
func NewEWMA(alpha float64, margin, max int) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("learner: alpha out of (0,1]")
	}
	if max < 1 || margin < 0 {
		panic("learner: bad EWMA bounds")
	}
	return &EWMA{alpha: alpha, margin: margin, max: max}
}

// Observe feeds the window's actual peak.
func (e *EWMA) Observe(peak int) {
	if !e.seen {
		e.level = float64(peak)
		e.seen = true
		return
	}
	e.level = e.alpha*float64(peak) + (1-e.alpha)*e.level
}

// Predict returns the predicted peak for the next window.
func (e *EWMA) Predict() int {
	if !e.seen {
		return e.max // conservative before any observation
	}
	p := int(e.level+0.999999) + e.margin // ceil + margin
	if p > e.max {
		p = e.max
	}
	if p < 0 {
		p = 0
	}
	return p
}
