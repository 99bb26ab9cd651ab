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
var fleetChaosBasePlan = faults.Plan{
	ServerCrashProb:   0.002,
	GrantDropProb:     0.2,
	GrantDelayProb:    0.1,
	ReadStaleProb:     0.1,
	ReconcileLossProb: 0.05,
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
	secs := make([]*section, len(faultIntensities))
	for i, in := range faultIntensities {
		// The sched experiment's fleet, under the scaled fleet plan only.
		fleet := schedFleet(cfg, nil)
		fleet.Faults = fleetChaosBasePlan.Scale(in.scale)
		secs[i] = &section{arms: policyArms("fleetchaos-"+in.name, sched.Config{Fleet: fleet, ArrivalRate: 2})}
	}
	err := sweep(cfg, secs...)

	r := &Report{ID: "fleetchaos", Title: "fleet-level fault sweep vs placement policies (extension)"}
	for i, in := range faultIntensities {
		r.addf("--- %s ---", in.name)
		cols := append([]col{{head: "policy", w: -10, key: "policy"}, {key: "fault_scale", hide: true}}, jobCols...)
		cols = append(cols,
			col{head: "abandon", w: 8, verb: "%d", key: "abandoned"},
			col{head: "crash", w: 7, verb: "%d", key: "crashes"},
			col{key: "orphaned", hide: true},
			col{head: "retry", w: 7, verb: "%d", key: "placement_retries"},
			col{head: "quar", w: 7, verb: "%d", key: "quarantines"},
			col{head: "degr", w: 7, verb: "%d", key: "degraded"})
		cols = append(append(cols, goodputCols...),
			col{key: "harvested_core_s", hide: true}, col{key: "faults", hide: true})
		t := newTable(r, cols...)
		for _, a := range secs[i].arms {
			if res := a.sres; res != nil {
				t.add(in.name, res.Policy, in.scale, jobs(res), res.Abandoned, res.Crashes, res.Orphaned,
					res.PlacementRetries, res.Quarantines, res.Degraded, goodput(res),
					res.Fleet.HarvestedCoreSec, res.Fleet.FaultsInjected)
			}
		}
	}
	r.addf("")
	r.addf("harvested core-seconds vs fault-free, per policy:")
	for pi, a := range secs[0].arms {
		free := a.sres
		if free == nil {
			continue
		}
		line := fmt.Sprintf("%-10s free %.1f", a.fleet.Policy, free.Fleet.HarvestedCoreSec)
		for i, sec := range secs[1:] {
			res := sec.arms[pi].sres
			if res == nil {
				continue
			}
			line += fmt.Sprintf("  |  %s %.1f (%s)", faultIntensities[i+1].name,
				res.Fleet.HarvestedCoreSec, pct(res.Fleet.HarvestedCoreSec, free.Fleet.HarvestedCoreSec))
		}
		r.addf("%s", line)
	}
	r.addf("(goodput counts completed work only; orphaned jobs re-place across servers within the requeue budget)")
	return r, err
}
