package learner

import "sort"

// DefaultLR is the paper's constant CSOAA learning rate (VW's default), for
// every CSOAA-backed zoo entry and core.NewSmartHarvest.
const DefaultLR = 0.1

// Factory builds a predictor for a given class count (alloc+1). All
// other shape parameters (feature count, learning rate, hidden width)
// are the factory's business, so callers can select predictors purely
// by name.
type Factory func(classes int) Predictor

// ZooEntry is one predictor of the zoo: its name and its factory.
type ZooEntry struct {
	Name string
	New  Factory
}

// Zoo is the predictor zoo, the one place its names are declared. Its
// order is harness.PredictorKind's: the paper's CSOAA comes first.
var Zoo = []ZooEntry{
	{"csoaa", func(classes int) Predictor { return NewCSOAAPredictor(classes, NumFeatures, DefaultLR) }},
	{"adagrad", func(classes int) Predictor { return NewAdaGradPredictor(classes, NumFeatures, DefaultLR) }},
	{"ewma", func(classes int) Predictor { return NewEWMAPredictor(classes) }},
	{"periodic", func(classes int) Predictor { return NewPeriodic(classes) }},
	{"mlp", func(classes int) Predictor { return NewMLP(classes) }},
	{"ensemble", func(classes int) Predictor { return NewEnsemble(classes) }},
}

// ZooNames returns the zoo's names in declaration order.
func ZooNames() []string {
	out := make([]string, len(Zoo))
	for i, e := range Zoo {
		out[i] = e.Name
	}
	return out
}

// Names returns the zoo's names, sorted.
func Names() []string {
	out := ZooNames()
	sort.Strings(out)
	return out
}
