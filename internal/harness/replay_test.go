package harness

import (
	"bytes"
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/core"
	"smartharvest/internal/faults"
	"smartharvest/internal/learner"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// TestReplayReproducesRun records a SmartHarvest run's JSONL trace,
// decodes it, and feeds the recorded windows' features open-loop into a
// fresh CSOAA with the same prior, training on the previous window's
// features against each window's peak exactly as the controller does.
// Safeguard windows are skipped (the controller neither trains nor
// predicts on them) and a churn event drops the feature history and
// rescales the features, as SetAlloc does. Every replayed prediction must
// equal the recorded one, and at the end of a run that stayed open-loop
// the replayed model must checkpoint to the live model's bytes:
// predictions alone can agree while the weights differ. Replaying from
// the trace's bytes shows the text format carries every bit the learner
// needs.
func TestReplayReproducesRun(t *testing.T) {
	arrival := apps.Memcached(20000)
	shape := func(name string, primaries ...apps.PrimarySpec) Scenario {
		return Scenario{Name: name, Primaries: primaries,
			Duration: 3 * sim.Second, Warmup: sim.Second, Seed: 7}
	}
	churn := shape("churn", apps.Memcached(20000))
	churn.Churn = []ChurnEvent{
		{At: 1500 * sim.Millisecond, Depart: -1, Arrive: &arrival},
		{At: 3 * sim.Second, Depart: 0},
	}
	crash := shape("noise-crash", apps.Memcached(40000))
	crash.Faults = faults.Plan{PollNoiseProb: 0.02, PollDropProb: 0.02, CrashProb: 0.01}
	for _, tc := range []struct {
		s      Scenario
		open   bool // the run never leaves open loop
		churns int
	}{
		{s: shape("memcached", apps.Memcached(40000)), open: true},
		{s: shape("indexserve", apps.IndexServe(500)), open: true},
		{s: shape("moses", apps.Moses(200)), open: true},
		{s: churn, open: true, churns: 2},
		{s: crash},
	} {
		t.Run(tc.s.Name, func(t *testing.T) {
			var live *core.SmartHarvest
			s := tc.s
			s.Controller = func(alloc int) core.Controller {
				live = core.NewSmartHarvest(alloc, core.SmartHarvestOptions{})
				return live
			}
			s.LongTermSafeguard = true
			var trace bytes.Buffer
			sink := obs.NewJSONL(&trace, obs.JSONLOmitPolls())
			if _, err := Run(s, WithObserver(sink)); err != nil {
				t.Fatal(err)
			}
			if err := sink.Flush(); err != nil {
				t.Fatal(err)
			}
			lines := bytes.Split(bytes.TrimSuffix(trace.Bytes(), []byte("\n")), []byte("\n"))
			recs := make([]obs.Record, len(lines))
			for i, line := range lines {
				if err := obs.Decode(line, &recs[i]); err != nil {
					t.Fatalf("trace line %d: %v", i+1, err)
				}
			}

			maxAlloc := live.Predictor().Classes() - 1
			cost := learner.SkewedCost{UnderPenalty: float64(maxAlloc)}
			costs := make([]float64, maxAlloc+1)
			model := learner.NewCSOAA(maxAlloc+1, learner.NumFeatures, 0.1)
			model.InitBias(learner.FillCosts(costs, cost, maxAlloc))

			alloc := len(s.Primaries) * 10 // the default PrimaryVMCores
			x := make([]float64, learner.NumFeatures)
			prevX := make([]float64, learner.NumFeatures)
			havePrev := false
			replayed, churns, safeguards := 0, 0, 0
			stopped := false
		replay:
			for _, r := range recs {
				switch r.Kind {
				case obs.KindChurnApplied:
					alloc = r.ChurnApplied.PrimaryAlloc
					havePrev = false
					churns++
				case obs.KindFaultInjected:
					if r.FaultInjected.Kind == obs.FaultAgentCrash {
						stopped = true
						break replay
					}
				case obs.KindDegradedEnter:
					stopped = true
					break replay
				case obs.KindWindowEnd:
					w := r.WindowEnd
					if w.Safeguard {
						safeguards++
						continue
					}
					f := w.Features
					if havePrev {
						model.Update(prevX, learner.FillCosts(costs, cost, f.Max))
					}
					learner.Features{Min: float64(f.Min), Max: float64(f.Max), Avg: f.Avg,
						Std: f.Std, Median: f.Median}.Vector(x, float64(alloc))
					copy(prevX, x)
					havePrev = true
					pred := min(model.Predict(x), alloc)
					if pred != w.Prediction {
						t.Fatalf("window %d at %v: replayed pred %d, recorded %d",
							w.Seq, w.At, pred, w.Prediction)
					}
					replayed++
				}
			}
			if replayed < 10 || (tc.open && safeguards == 0) {
				t.Fatalf("%d windows replayed, %d safeguard windows skipped", replayed, safeguards)
			}
			if churns != tc.churns || stopped == tc.open {
				t.Fatalf("shape drifted: %d churns, %d safeguard windows, stopped=%v",
					churns, safeguards, stopped)
			}
			if !tc.open {
				return
			}
			got, err := model.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			want, err := live.Predictor().Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("replayed model diverged from the live one after %d windows", replayed)
			}
		})
	}
}
