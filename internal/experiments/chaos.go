package experiments

import (
	"smartharvest/internal/apps"
	"smartharvest/internal/faults"
)

// chaosBasePlan is the ×1 fault mix the chaos experiment scales: every
// injection surface enabled at rates high enough to exercise the retry
// and degradation machinery within a 30 s run, low enough that the agent
// spends most of the run harvesting.
var chaosBasePlan = faults.Plan{
	HypercallFailProb:  0.05,
	HypercallDelayProb: 0.05,
	PollDropProb:       0.001,
	PollStaleProb:      0.002,
	PollNoiseProb:      0.01,
	StallProb:          0.005,
	CrashProb:          0.001,
}

// faultIntensities is the fault-intensity axis of the chaos and
// fleetchaos sweeps: each scales its experiment's ×1 base plan.
var faultIntensities = []struct {
	name  string
	scale float64
}{
	{"fault-free", 0},
	{"light (x0.25)", 0.25},
	{"moderate (x1)", 1},
	{"heavy (x4)", 4},
}

// Chaos sweeps fault intensity over the headline scenario (Memcached 40k
// + CPUBully, SmartHarvest, long-term safeguard on) and reports how P99
// and the harvest degrade as the injected fault rate grows. The ×0 run
// is the fault-free reference; every other run injects the base plan
// with all probabilities scaled. The whole sweep is deterministic from
// cfg.Seed.
func Chaos(cfg Config) (*Report, error) {
	var sec section
	for _, in := range faultIntensities {
		s := scenario(cfg, "chaos-"+in.name, apps.Memcached(40000), smartharvest(cfg))
		s.Faults = chaosBasePlan.Scale(in.scale)
		sec.add(in.name, s)
	}
	if err := sweep(cfg, &sec); err != nil {
		return nil, err
	}

	r := &Report{ID: "chaos", Title: "fault-injection sweep (Memcached 40k + CPUBully, SmartHarvest)"}
	free := sec.arms[0].res
	t := newTable(r,
		col{head: "intensity", w: -15, key: "intensity"},
		col{key: "fault_scale", hide: true},
		p99Cols[0],
		col{head: "vs free", w: 8},
		col{head: "harvested", w: 10, verb: "%.2f", key: "harvested_cores"},
		col{head: "faults", w: 9, verb: "%d", key: "faults"},
		col{head: "retries", w: 8, verb: "%d", key: "retries"},
		col{head: "aborts", w: 8, verb: "%d", key: "aborts"},
		col{head: "degrade", w: 8, verb: "%d", key: "degradations"},
		col{head: "missedW", w: 9, verb: "%d", key: "missed_windows"})
	for i, a := range sec.arms {
		res := a.res
		var delta any // the fault-free reference has none
		if i > 0 {
			delta = pct(res.P99(0), free.P99(0))
		}
		t.add("", a.name, faultIntensities[i].scale, res.P99(0), delta, res.AvgHarvestedCores,
			res.FaultsInjected, res.ResizeRetries, res.ResizesAborted, res.Degradations, res.MissedWindows)
	}
	r.addf("")
	freeCS := free.AvgHarvestedCores * free.Duration.Seconds()
	r.addf("harvested core-seconds: fault-free %.1f", freeCS)
	for _, a := range sec.arms[1:] {
		cs := a.res.AvgHarvestedCores * a.res.Duration.Seconds()
		delta := pct(cs, freeCS)
		if freeCS != 0 {
			delta += " vs fault-free"
		}
		r.addf("harvested core-seconds: %s %.1f (%s)", a.name, cs, delta)
	}
	return r, nil
}
