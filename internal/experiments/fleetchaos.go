package experiments

import (
	"fmt"

	"smartharvest/internal/faults"
	"smartharvest/internal/sched"
)

// fleetChaosBasePlan is the ×1 fleet fault mix the fleetchaos experiment
// scales: every fleet injection surface enabled at rates high enough to
// exercise crash recovery, placement retry, quarantine, and degraded
// admission within a 30 s run, low enough that the fleet spends most of
// the run doing useful work.
func fleetChaosBasePlan() faults.Plan {
	return faults.Plan{
		ServerCrashProb:   0.002,
		GrantDropProb:     0.2,
		GrantDelayProb:    0.1,
		ReadStaleProb:     0.1,
		ReconcileLossProb: 0.05,
	}
}

// FleetChaos sweeps fleet-level fault intensity against each placement
// policy: whole-server crashes, dropped/delayed placement grants, stale
// telemetry reads, and reconcile-message loss, all scaled together from
// the base plan. The ×0 run per policy is its fault-free reference (a
// zero plan builds no injector, so those runs are byte-identical to a
// plain sched run). Reported per run: SLO attainment, goodput,
// eviction/requeue/abandon counts, the self-healing counters (crashes,
// orphans, retries, quarantines, degraded-admission entries), and
// harvested core-seconds against the policy's fault-free baseline. The
// whole sweep is deterministic from cfg.Seed at any cfg.Parallel.
func FleetChaos(cfg Config) (*Report, error) {
	intensities := []struct {
		name  string
		scale float64
	}{
		{"fault-free", 0},
		{"light (x0.25)", 0.25},
		{"moderate (x1)", 1},
		{"heavy (x4)", 4},
	}
	policies := []sched.Policy{sched.FirstFit, sched.BestFit, sched.Predicted}
	base := fleetChaosBasePlan()
	type spec struct {
		intensity int
		pol       sched.Policy
	}
	var specs []spec
	for i := range intensities {
		for _, pol := range policies {
			specs = append(specs, spec{i, pol})
		}
	}

	runs := make([]sched.Config, len(specs))
	for i, sp := range specs {
		// The sched experiment's fleet, under the scaled fleet plan only.
		fleet := schedFleet(cfg, nil)
		fleet.Faults = base.Scale(intensities[sp.intensity].scale)
		runs[i] = sched.Config{Fleet: fleet, Policy: sp.pol, ArrivalRate: 2}
	}
	results, err := runSched(cfg, runs, func(i int) string {
		return fmt.Sprintf("fleetchaos %s %s", intensities[specs[i].intensity].name, specs[i].pol)
	})

	r := &Report{ID: "fleetchaos", Title: "fleet-level fault sweep vs placement policies (extension)"}
	// Fault-free baseline per policy, for the harvested-core-second and
	// goodput deltas (specs are laid out intensity-major, so policy j's
	// baseline is results[j]).
	for bi, in := range intensities {
		r.addf("--- %s ---", in.name)
		r.addf("%-10s %5s %5s %6s %8s %8s %7s %7s %7s %7s %9s %5s",
			"policy", "sub", "done", "evict", "requeue", "abandon",
			"crash", "retry", "quar", "degr", "goodput", "SLO")
		for pi := range policies {
			res := results[bi*len(policies)+pi]
			if res == nil {
				continue
			}
			slo := "n/a"
			if res.SLOJobs > 0 {
				slo = fmt.Sprintf("%3.0f%%", 100*res.SLOAttainment())
			}
			r.addf("%-10s %5d %5d %6d %8d %8d %7d %7d %7d %7d %8.1fs %5s",
				res.Policy, res.Submitted, res.Completed,
				res.Evictions, res.Requeues, res.Abandoned,
				res.Crashes, res.PlacementRetries, res.Quarantines, res.Degraded,
				res.GoodputCoreSec, slo)
			r.row(in.name, S("policy", res.Policy.String()), N("fault_scale", in.scale),
				N("submitted", float64(res.Submitted)), N("completed", float64(res.Completed)),
				N("evictions", float64(res.Evictions)), N("requeues", float64(res.Requeues)),
				N("abandoned", float64(res.Abandoned)),
				N("crashes", float64(res.Crashes)), N("orphaned", float64(res.Orphaned)),
				N("placement_retries", float64(res.PlacementRetries)),
				N("quarantines", float64(res.Quarantines)), N("degraded", float64(res.Degraded)),
				N("goodput_core_s", res.GoodputCoreSec), N("slo_attainment", res.SLOAttainment()),
				N("harvested_core_s", res.Fleet.HarvestedCoreSec),
				N("faults", float64(res.Fleet.FaultsInjected)))
		}
	}
	r.addf("")
	r.addf("harvested core-seconds vs fault-free, per policy:")
	for pi, pol := range policies {
		free := results[pi]
		if free == nil {
			continue
		}
		line := fmt.Sprintf("%-10s free %.1f", pol, free.Fleet.HarvestedCoreSec)
		for bi := 1; bi < len(intensities); bi++ {
			res := results[bi*len(policies)+pi]
			if res == nil {
				continue
			}
			delta := "n/a"
			if free.Fleet.HarvestedCoreSec > 0 {
				delta = fmt.Sprintf("%+.0f%%",
					(res.Fleet.HarvestedCoreSec/free.Fleet.HarvestedCoreSec-1)*100)
			}
			line += fmt.Sprintf("  |  %s %.1f (%s)",
				intensities[bi].name, res.Fleet.HarvestedCoreSec, delta)
		}
		r.addf("%s", line)
	}
	r.addf("(goodput counts completed work only; orphaned jobs re-place across servers within the requeue budget)")
	return r, err
}
