package learner

import (
	"fmt"
	"strings"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	c := NewCSOAA(11, NumFeatures, 0.1)
	cf := SkewedCost{UnderPenalty: 10}
	costs := make([]float64, 11)
	x := []float64{0.1, 0.6, 0.3, 0.1, 0.3}
	for i := 0; i < 500; i++ {
		c.Update(x, FillCosts(costs, cf, 6))
	}
	data, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewCSOAA(11, NumFeatures, 0.5)
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	if restored.Updates() != c.Updates() || restored.lr != c.lr {
		t.Fatalf("metadata mismatch: updates %d vs %d, lr %v vs %v",
			restored.Updates(), c.Updates(), restored.lr, c.lr)
	}
	// Identical predictions on a grid of inputs.
	probe := make([]float64, NumFeatures)
	for i := 0; i <= 20; i++ {
		v := float64(i) / 20
		probe[0], probe[1], probe[2], probe[3], probe[4] = v/4, v, v/2, v/8, v/2
		if restored.Predict(probe) != c.Predict(probe) {
			t.Fatalf("prediction diverged at %v", v)
		}
	}
	// The restored model keeps training.
	restored.Update(x, FillCosts(costs, cf, 3))
	if restored.Updates() != c.Updates()+1 {
		t.Fatal("restored model did not resume training")
	}
}

func TestLoadRejectsCorruptModels(t *testing.T) {
	cases := map[string]string{
		"garbage":     "not json",
		"bad-version": `{"version":99,"classes":3,"nfeat":5,"lr":0.1,"weights":[[0],[0],[0]]}`,
		"bad-header":  `{"version":1,"classes":1,"nfeat":5,"lr":0.1,"weights":[[0]]}`,
		"bad-lr":      `{"version":1,"classes":3,"nfeat":5,"lr":7,"weights":[[0],[0],[0]]}`,
		"row-count":   `{"version":1,"classes":3,"nfeat":5,"lr":0.1,"weights":[[0,0,0,0,0,0]]}`,
		"row-width":   `{"version":1,"classes":3,"nfeat":5,"lr":0.1,"weights":[[0],[0],[0]]}`,
		"trailing":    `{"version":1,"classes":3,"nfeat":5,"lr":0.1,"weights":[]} x`,
	}
	for name, in := range cases {
		if err := NewCSOAA(3, 5, 0.1).Restore([]byte(in)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestSaveLoadFreshModel(t *testing.T) {
	c := NewCSOAA(3, 2, 0.5)
	c.InitBias([]float64{2, 1, 0})
	data, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewCSOAA(3, 2, 0.5)
	if err := restored.Restore(data); err != nil {
		t.Fatal(err)
	}
	if restored.Predict([]float64{0, 0}) != 2 {
		t.Fatal("bias not preserved")
	}
}

// zeroModel renders a version-1 checkpoint of an all-zero model.
func zeroModel(classes, nfeat int, gradSq bool) string {
	row := "[0" + strings.Repeat(",0", nfeat) + "]"
	rows := "[" + row + strings.Repeat(","+row, classes-1) + "]"
	s := fmt.Sprintf(`{"version":1,"classes":%d,"nfeat":%d,"lr":0.1,"updates":0,"weights":%s`, classes, nfeat, rows)
	if gradSq {
		s += `,"grad_sq":` + rows
	}
	return s + "}\n"
}

// TestRestoreRejectsShapeMismatch: a checkpoint restores only into a
// model of the same class count, feature count and variant. An 11-class
// model with three features used to be accepted and then panic the
// first Predict on a five-feature window.
func TestRestoreRejectsShapeMismatch(t *testing.T) {
	for _, variant := range []struct {
		name string
		new  func() *CSOAAPredictor
		grad bool
	}{
		{"csoaa", func() *CSOAAPredictor { return NewCSOAAPredictor(testClasses, NumFeatures, 0.1) }, false},
		{"adagrad", func() *CSOAAPredictor { return NewAdaGradPredictor(testClasses, NumFeatures, 0.1) }, true},
	} {
		p := variant.new()
		if err := p.Restore([]byte(zeroModel(testClasses, NumFeatures, variant.grad))); err != nil {
			t.Fatalf("%s: own shape refused: %v", variant.name, err)
		}
		for name, in := range map[string]string{
			"nfeat":   zeroModel(testClasses, 3, variant.grad),
			"classes": zeroModel(testClasses+2, NumFeatures, variant.grad),
			"variant": zeroModel(testClasses, NumFeatures, !variant.grad),
		} {
			p := variant.new()
			if err := p.Restore([]byte(in)); err == nil {
				t.Errorf("%s: %s mismatch accepted", variant.name, name)
			}
			if got := p.Predict(0, make([]float64, NumFeatures)); got != testClasses-1 {
				t.Errorf("%s: %s mismatch changed the model: predicts %d", variant.name, name, got)
			}
		}
	}
}
