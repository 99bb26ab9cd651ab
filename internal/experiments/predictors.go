package experiments

import (
	"fmt"

	"smartharvest/internal/apps"
	"smartharvest/internal/core"
	"smartharvest/internal/harness"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
	"smartharvest/internal/workload"
)

// predictorKinds is the ablation's predictor axis: the paper's CSOAA
// plus every zoo competitor (adagrad is CSOAA's adaptive-step variant).
var predictorKinds = []harness.PredictorKind{
	harness.PredictorCSOAA,
	harness.PredictorAdaGrad,
	harness.PredictorEWMA,
	harness.PredictorPeriodic,
	harness.PredictorMLP,
	harness.PredictorEnsemble,
}

// predictorClasses is the workload axis: the characterization classes
// with non-trivial structure (flat is covered by every other experiment's
// stationary workloads).
var predictorClasses = []workload.Class{workload.ClassPeriodic, workload.ClassBursty, workload.ClassMixed}

// accuracyObs scores next-window peak predictions against realized
// peaks by pairing consecutive WindowEnd events: the controller's raw
// Prediction at the end of window i targets window i+1, whose realized
// peak is the next event's Features.Max. Safeguard-truncated windows are
// skipped on either side (their peaks are censored by the early cut).
// One instance serves exactly one scenario, so no locking is needed even
// on a parallel worker pool.
type accuracyObs struct {
	obs.NopObserver
	warmup sim.Time

	havePrev  bool
	prevPred  int
	prevGuard bool

	n      int   // scored window pairs
	absErr int64 // sum of |prediction - realized peak|
	under  int   // predictions strictly below the realized peak
}

func (a *accuracyObs) OnWindowEnd(e obs.WindowEnd) {
	if e.At >= a.warmup && a.havePrev && !a.prevGuard && !e.Safeguard {
		d := a.prevPred - e.Features.Max
		if d < 0 {
			a.under++
			d = -d
		}
		a.absErr += int64(d)
		a.n++
	}
	a.havePrev = true
	a.prevPred = e.Prediction
	a.prevGuard = e.Safeguard
}

// scores returns the mean absolute prediction error in cores and the
// fraction of scored predictions that came in below the realized peak
// (the dangerous direction).
func (a *accuracyObs) scores() (meanAbsErr, underFrac float64) {
	if a.n == 0 {
		return 0, 0
	}
	return float64(a.absErr) / float64(a.n), float64(a.under) / float64(a.n)
}

// Predictors is the predictor-ablation experiment: every registered
// predictor against every workload-characterization class, reporting
// prediction accuracy, safeguard-trigger rate, harvested core-seconds,
// and the P99 cost against a no-harvest baseline per class. Every arm
// runs the long-term safeguard, as a scenario's default controller does.
func Predictors(cfg Config) (*Report, error) {
	const (
		charQPS = 30000 // per VM; 57 µs service → ~1.7 avg busy cores
		charVMs = 2     // two primaries make Correlation observable
	)

	var secs []*section
	for _, class := range predictorClasses {
		// Per-class seed: every VM mix is its own draw, but the same class
		// mix is bit-identical across predictor rows.
		mk := func(name string, ctrl harness.ControllerFactory) harness.Scenario {
			mix := apps.CharacterizedMix(cfg.Seed^uint64(class+1), charVMs, class, charQPS)
			return scenarioOf(cfg, name, ctrl, false, mix...)
		}
		sec := withBase(mk(fmt.Sprintf("pred-%v-base", class), harness.NoHarvestFactory()))
		for _, kind := range predictorKinds {
			s := mk(fmt.Sprintf("pred-%v-%v", class, kind),
				harness.SmartHarvestPredictorFactory(kind, core.SmartHarvestOptions{}))
			s.LongTermSafeguard = true
			s.Observer = &accuracyObs{warmup: cfg.Warmup}
			sec.add(kind.String(), s)
		}
		secs = append(secs, sec)
	}
	if err := sweep(cfg, secs...); err != nil {
		return nil, err
	}

	r := &Report{ID: "predictors", Title: "predictor zoo across workload-characterization classes"}
	for i, class := range predictorClasses {
		base := secs[i].base.res
		r.addf("--- class %v (%d VMs x %d qps), no-harvest P99 = %s ---",
			class, charVMs, charQPS, ms(base.P99(0)))
		t := newTable(r,
			col{head: "predictor", w: -12, key: "predictor"},
			col{head: "|err|", w: 8, verb: "%.2f", key: "mean_abs_err_cores"},
			col{head: "under%", w: 8, key: "under_frac"},
			col{head: "sg-rate", w: 9, verb: "%.3f", key: "safeguard_rate"},
			col{head: "harv-cs", w: 10, verb: "%.1f", key: "harvested_core_s"},
			p99Cols[0], p99Cols[1])
		for _, a := range secs[i].arms {
			res, acc := a.res, a.scen.Observer.(*accuracyObs)
			sgRate := 0.0
			if res.Windows > 0 {
				sgRate = float64(res.Safeguards) / float64(res.Windows)
			}
			absErr, under := acc.scores()
			t.add(fmt.Sprintf("class-%v", class), a.name, absErr,
				shown{fmt.Sprintf("%.0f%%", 100*under), under},
				sgRate, res.AvgHarvestedCores*cfg.Duration.Seconds(), vsBase(res, base)[:2])
		}
	}
	return r, nil
}
