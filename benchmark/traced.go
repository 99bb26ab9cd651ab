package main

import (
	"fmt"
	"io"
)

// tracedRepeats is how many passes each side of a traced run's comparisons
// gets. Every wall time below is bestWallS over that many passes: with the
// host's interference a single pass against a single pass reads the
// interference, not the overhead.
const tracedRepeats = 2

// ledgerRow is one line of the cost ledger: what a layer should have cost,
// from its count in the traced pass and its unit cost in the probes.
type ledgerRow struct {
	Layer  string  `json:"layer"`
	Count  float64 `json:"count"`
	UnitNs float64 `json:"unit_ns"`
	Ms     float64 `json:"ms"`
	Share  float64 `json:"share_of_wall"`
}

// bestPasses runs ops n times under a tracer (nil for untraced) and returns
// the passes with their interference-free wall time.
func bestPasses(ops []op, opt options, n int, tr *tracer, ref *pass, rec *record) ([]pass, float64) {
	var passes []pass
	for i := 0; i < n; i++ {
		p := runPass(ops, opt.seed, tr, ref)
		rec.note(ops, &p)
		passes = append(passes, p)
	}
	return passes, bestWallS(passes)
}

// measureTraced is the traced run: untraced reference passes, traced passes
// for the counts, controller time and spans, reruns without the sinks and
// without the checker where the workload has them, the probes, and the
// ledger. It reports the per-layer metrics; end-to-end numbers come from the
// untraced run only.
func measureTraced(w workloadDef, opt options, rec *record, stdout io.Writer) error {
	ops := w.ops(opt.sc)
	// No warm-up pass: a cold first pass cannot slow bestWallS down.
	opt.warmup, opt.repeats, opt.seconds = false, tracedRepeats, 0
	_, plain := timedPasses(ops, opt, rec)
	ref := &plain[0]
	wall := bestWallS(plain)

	tr := &tracer{workload: w.name}
	traced, tracedWall := bestPasses(ops, opt, tracedRepeats, tr, ref, rec)
	c, simS := traced[0].counts, traced[0].simS
	if traced[0].digest != ref.digest {
		return fmt.Errorf("the traced pass changed the simulated statistics")
	}

	// overhead is the share of the workload's time that goes away without
	// the part the variant ops leave out.
	overhead := func(variant func(scale) []op) float64 {
		if variant == nil {
			return 0
		}
		_, without := bestPasses(variant(opt.sc), opt, tracedRepeats, nil, nil, rec)
		return wall/without - 1
	}
	obsOverhead, checkOverhead := overhead(w.noSink), overhead(w.noChecker)

	probes, err := runProbes(opt.sc.probeDivisor)
	if err != nil {
		return err
	}

	var opWall []float64 // per op, interference-free
	schedWallS := 0.0    // ... summed over the ops that have a cluster reference
	for i, o := range ops {
		best := plain[0].opWallMs[i]
		for _, p := range plain {
			best = min(best, p.opWallMs[i])
		}
		opWall = append(opWall, best)
		if o.reference != nil {
			schedWallS += best / 1e3
		}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	clusterWallS := c[cClusterWallS]
	for _, p := range traced {
		clusterWallS = min(clusterWallS, p.counts[cClusterWallS])
	}
	sloAttainment := 1.0
	if c[cSLOJobs] > 0 {
		sloAttainment = c[cSLOMet] / c[cSLOJobs]
	}

	schedOverhead := 0.0
	if clusterWallS > 0 {
		schedOverhead = schedWallS/clusterWallS - 1
	}

	unit := func(name string) float64 { return probes.metrics[name].Value }
	pollNs := unit("core.agent_ns_per_poll")
	if c[cClusterRuns] > 0 {
		// The fleet's polls are scheduled on the deep shared heap.
		pollNs += unit("sim.schedule_fire_depth4k_ns") - unit("sim.schedule_fire_ns")
	}
	ledger := []ledgerRow{
		{Layer: "core+sim: agent polls, window ends included", Count: c[cPolls], UnitNs: pollNs},
		{Layer: "hypervisor: busy-core reads, one a poll", Count: c[cPolls], UnitNs: unit("hypervisor.busy_cores_ns")},
		{Layer: "hypervisor+apps+metrics: requests", Count: c[cRequests], UnitNs: unit("hypervisor.ns_per_request")},
	}
	switch {
	case c[cJSONLBytes] > 0: // observed-chaos: JSONL and Metrics sinks, agent checker
		ledger = append(ledger,
			ledgerRow{Layer: "obs: events into the Metrics sink", Count: c[cEvents], UnitNs: unit("obs.metrics_ns_per_event")},
			ledgerRow{Layer: "obs: bytes out of the JSONL sink", Count: c[cJSONLBytes], UnitNs: unit("obs.jsonl_ns_per_event") / probes.jsonlBytesPerEvent},
			ledgerRow{Layer: "check: events into the checker", Count: c[cEvents], UnitNs: unit("check.checker_ns_per_event")})
	case c[cClusterRuns] > 0: // the fleet: job checker; sched and market have no unit cost
		ledger = append(ledger,
			ledgerRow{Layer: "check: events into the job checker", Count: c[cEvents], UnitNs: unit("check.jobchecker_ns_per_event")},
			ledgerRow{Layer: "cluster: fleet set-ups", Count: c[cClusterRuns], UnitNs: c[cClusterNewFleetMs] / c[cClusterRuns] * 1e6})
	}
	covered := 0.0
	for i := range ledger {
		ledger[i].Ms = ledger[i].Count * ledger[i].UnitNs / 1e6
		ledger[i].Share = ledger[i].Ms / 1e3 / wall
		covered += ledger[i].Share
	}

	m := probes.metrics
	for name, v := range map[string]float64{
		"core.polls_per_sim_s":            c[cPolls] / simS,
		"core.windows_per_sim_s":          c[cWindows] / simS,
		"core.resizes_per_sim_s":          c[cResizes] / simS,
		"core.safeguards_per_sim_s":       c[cSafeguards] / simS,
		"core.qos_trips":                  c[cQoSTrips],
		"core.resize_retries_per_sim_s":   c[cResizeRetries] / simS,
		"core.degradations":               c[cDegradations],
		"core.controller_ns_per_window":   ratio(c[cControllerNs], c[cWindows]),
		"apps.requests_per_sim_s":         c[cRequests] / simS,
		"apps.p99_ratio_max":              simulatedOf(ops, ref).p99Max,
		"obs.events_per_sim_s":            c[cEvents] / simS,
		"obs.jsonl_bytes_per_sim_s":       c[cJSONLBytes] / simS,
		"obs.overhead_frac":               obsOverhead,
		"check.overhead_frac":             checkOverhead,
		"check.violations":                c[cViolations],
		"faults.injected_per_sim_s":       c[cFaults] / simS,
		"harness.scenario_wall_ms_p50":    percentile(opWall, 0.5),
		"harness.scenario_wall_ms_max":    percentile(opWall, 1),
		"cluster.newfleet_ms_per_server":  ratio(c[cClusterNewFleetMs], c[cClusterRuns]*fleetServers),
		"cluster.run_ms_per_server_sim_s": ratio(c[cClusterRunMs], c[cClusterServerSimS]),
		"cluster.finish_ms":               ratio(c[cClusterFinishMs], c[cClusterRuns]),
		"cluster.newfleet_wall_frac":      c[cClusterNewFleetMs] / 1e3 / wall,
		"sched.overhead_frac":             schedOverhead,
		"sched.jobs_submitted":            c[cJobs],
		"sched.evictions":                 c[cEvictions],
		"sched.requeues":                  c[cRequeues],
		"sched.placement_retries":         c[cPlacementRetries],
		"sched.quarantines":               c[cQuarantines],
		"sched.slo_attainment":            sloAttainment,
		"market.revenue":                  c[cRevenue],
		"trace.overhead_frac":             tracedWall/wall - 1,
		"ledger.coverage_frac":            covered,
	} {
		m[name] = newSample(unitOf(name), v)
	}
	rec.Metrics = m

	path, err := tr.write("out", ledger)
	if err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Fprintf(stdout, "trace: %d spans in benchmark/%s\n", len(tr.spans), path)
	fmt.Fprintf(stdout, "cost ledger against %.0f ms of untraced wall (printed, not gated):\n", wall*1e3)
	for _, row := range ledger {
		fmt.Fprintf(stdout, "  %-46s %12.0f x %9.1f ns = %8.1f ms  %5.1f %%\n",
			row.Layer, row.Count, row.UnitNs, row.Ms, 100*row.Share)
	}
	return nil
}

// unitOf looks a per-layer metric's unit up in the registry.
func unitOf(name string) string {
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("shbench: no per-layer metric " + name)
}
