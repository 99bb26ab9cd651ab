package experiments

import (
	"fmt"

	"smartharvest/internal/market"
	"smartharvest/internal/sched"
)

// Sched compares the fleet job scheduler's placement policies
// (internal/sched) head to head: the same fleet, tenant stream, and job
// stream, differing only in how jobs are matched to servers' harvested
// capacity. It sweeps job arrival rate to show where the policies
// separate — under light load any placement works; under pressure the
// predicted policy's use of each agent's live forecast should cut
// evictions and improve SLO attainment. Runs honor cfg.Check (job
// invariants via check.JobChecker), cfg.Faults (injected into every
// server, composing the schedulers with degraded agents), cfg.TenantMix
// (characterized tenant workloads), and cfg.Pools (a harvested-capacity
// pool plan opened on every run's fleet; jobs then place against pool
// balances and the report gains the market totals).
func Sched(cfg Config) (*Report, error) {
	workloads, err := tenantWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	var mcfg market.Config
	if cfg.Pools != "" {
		if mcfg, err = market.ParsePools(cfg.Pools); err != nil {
			return nil, fmt.Errorf("experiments: sched pools: %w", err)
		}
	}
	rates := []float64{1, 3}
	policies := []sched.Policy{sched.FirstFit, sched.BestFit, sched.Predicted}
	type spec struct {
		rate float64
		pol  sched.Policy
	}
	var specs []spec
	for _, rate := range rates {
		for _, pol := range policies {
			specs = append(specs, spec{rate, pol})
		}
	}

	// Each run is an independent, fully seeded simulation collected by
	// index, so the report is byte-identical at any cfg.Parallel.
	runs := make([]sched.Config, len(specs))
	for i, sp := range specs {
		runs[i] = sched.Config{
			Fleet:       schedFleet(cfg, workloads),
			Policy:      sp.pol,
			ArrivalRate: sp.rate,
			Market:      mcfg,
		}
	}
	results, err := runSched(cfg, runs, func(i int) string {
		return fmt.Sprintf("sched %s @%g/s", specs[i].pol, specs[i].rate)
	})

	r := &Report{ID: "sched", Title: "harvest-aware job scheduling policies (extension)"}
	r.addf("%-10s %6s %5s %5s %6s %8s %9s %9s %9s %5s",
		"policy", "jobs/s", "sub", "done", "evict", "requeue", "P50", "P99", "goodput", "SLO")
	var faults uint64
	for i, res := range results {
		if res == nil {
			continue
		}
		slo := "n/a"
		if res.SLOJobs > 0 {
			slo = fmt.Sprintf("%3.0f%%", 100*res.SLOAttainment())
		}
		r.addf("%-10s %6.1f %5d %5d %6d %8d %9s %9s %8.1fs %5s",
			res.Policy, specs[i].rate, res.Submitted, res.Completed,
			res.Evictions, res.Requeues,
			ms(int64(res.CompletionP50)), ms(int64(res.CompletionP99)),
			res.GoodputCoreSec, slo)
		r.row("", S("policy", res.Policy.String()), N("jobs_per_s", specs[i].rate),
			N("submitted", float64(res.Submitted)), N("completed", float64(res.Completed)),
			N("evictions", float64(res.Evictions)), N("requeues", float64(res.Requeues)),
			N("completion_p50_ns", float64(res.CompletionP50)),
			N("completion_p99_ns", float64(res.CompletionP99)),
			N("goodput_core_s", res.GoodputCoreSec), N("slo_attainment", res.SLOAttainment()))
		faults += res.Fleet.FaultsInjected
	}
	if cfg.Faults.Enabled() {
		r.addf("faults injected across runs: %d", faults)
	}
	if mcfg.Enabled() {
		var revenue, penalties float64
		for _, res := range results {
			if res != nil && res.Market != nil {
				revenue += res.Market.Revenue
				penalties += res.Market.Penalties
			}
		}
		r.addf("pool plan %q across runs: revenue %.1f, penalties %.1f", mcfg, revenue, penalties)
	}
	r.addf("(goodput counts completed work only; evicted progress is checkpointed, never double-counted)")
	return r, err
}
