package learner

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// modelState is the serialized form of a CSOAA model, and the host agent's
// -model-file format (cmd/hostagent): a long-running agent persists what
// it learned across restarts so a redeploy does not reset harvesting to
// the conservative prior. The AdaGrad accumulators travel with the
// weights: restoring only the weights would reset every per-coordinate
// step size to its large initial value and briefly destabilize a
// converged model.
type modelState struct {
	Version int         `json:"version"`
	Classes int         `json:"classes"`
	NFeat   int         `json:"nfeat"`
	LR      float64     `json:"lr"`
	Updates uint64      `json:"updates"`
	Weights [][]float64 `json:"weights"`
	GradSq  [][]float64 `json:"grad_sq,omitempty"`
}

const modelVersion = 1

// Name returns the model's zoo name: "adagrad" when it carries AdaGrad
// accumulators, "csoaa" otherwise.
func (c *CSOAA) Name() string {
	if c.gradSq != nil {
		return "adagrad"
	}
	return "csoaa"
}

// Checkpoint serializes the model as one line of JSON. It fails on
// weights that diverged to NaN or Inf, which JSON cannot carry.
func (c *CSOAA) Checkpoint() ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(&modelState{
		Version: modelVersion,
		Classes: c.classes,
		NFeat:   c.nfeat,
		LR:      c.lr,
		Updates: c.updates,
		Weights: c.weights,
		GradSq:  c.gradSq,
	})
	return buf.Bytes(), err
}

// Restore replaces the model with a checkpoint of the same variant, class
// count and feature count, which resumes training from the checkpoint's
// weights, update count and learning rate.
func (c *CSOAA) Restore(data []byte) error {
	var st modelState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("learner: decoding model: %w", err)
	}
	if st.Version != modelVersion {
		return fmt.Errorf("learner: unsupported model version %d", st.Version)
	}
	if st.Classes != c.classes || st.NFeat != c.nfeat {
		return fmt.Errorf("learner: model has %d classes and %d features, want %d and %d",
			st.Classes, st.NFeat, c.classes, c.nfeat)
	}
	if st.LR <= 0 || st.LR > 1 {
		return fmt.Errorf("learner: model learning rate %v out of (0,1]", st.LR)
	}
	if (st.GradSq != nil) != (c.gradSq != nil) {
		return fmt.Errorf("learner: model variant mismatch: restoring into %s", c.Name())
	}
	if err := checkRows("weights", st.Weights, c.classes, c.nfeat+1); err != nil {
		return err
	}
	if c.gradSq != nil {
		if err := checkRows("grad_sq", st.GradSq, c.classes, c.nfeat+1); err != nil {
			return err
		}
	}
	c.lr, c.weights, c.gradSq, c.updates = st.LR, st.Weights, st.GradSq, st.Updates
	return nil
}

// checkRows refuses a decoded matrix that is not n rows of width values.
func checkRows(what string, rows [][]float64, n, width int) error {
	if len(rows) != n {
		return fmt.Errorf("learner: %s has %d rows, want %d", what, len(rows), n)
	}
	for i, row := range rows {
		if len(row) != width {
			return fmt.Errorf("learner: %s row %d has %d values, want %d", what, i, len(row), width)
		}
	}
	return nil
}
