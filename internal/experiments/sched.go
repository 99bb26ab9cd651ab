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
	mcfg, err := market.ParsePools(cfg.Pools)
	if err != nil {
		return nil, fmt.Errorf("experiments: sched pools: %w", err)
	}
	var sec section
	for _, rate := range []float64{1, 3} {
		sec.arms = append(sec.arms, policyArms(fmt.Sprintf("sched-%g", rate), sched.Config{
			Fleet: schedFleet(cfg, workloads), ArrivalRate: rate, Market: mcfg,
		})...)
	}
	err = sweep(cfg, &sec)

	r := &Report{ID: "sched", Title: "harvest-aware job scheduling policies (extension)"}
	cols := append([]col{
		{head: "policy", w: -10, key: "policy"},
		{head: "jobs/s", w: 6, verb: "%.1f", key: "jobs_per_s"},
	}, jobCols...)
	cols = append(cols,
		col{head: "P50", w: 9, verb: msVerb, key: "completion_p50_ns"},
		col{head: "P99", w: 9, verb: msVerb, key: "completion_p99_ns"})
	t := newTable(r, append(cols, goodputCols...)...)
	var faults uint64
	var revenue, penalties float64
	for _, a := range sec.arms {
		res := a.sres
		if res == nil {
			continue
		}
		t.add("", res.Policy, a.fleet.ArrivalRate, jobs(res), res.CompletionP50, res.CompletionP99, goodput(res))
		faults += res.Fleet.FaultsInjected
		if res.Market != nil {
			revenue += res.Market.Revenue
			penalties += res.Market.Penalties
		}
	}
	if cfg.Faults.Enabled() {
		r.addf("faults injected across runs: %d", faults)
	}
	if mcfg.Enabled() {
		r.addf("pool plan %q across runs: revenue %.1f, penalties %.1f", mcfg, revenue, penalties)
	}
	r.addf("(goodput counts completed work only; evicted progress is checkpointed, never double-counted)")
	return r, err
}

// schedPolicies are the placement policies the sched family compares.
var schedPolicies = []sched.Policy{sched.FirstFit, sched.BestFit, sched.Predicted}

// jobCols are the sched family's job-count columns; jobs fills them.
var jobCols = []col{
	{head: "sub", w: 5, verb: "%d", key: "submitted"},
	{head: "done", w: 5, verb: "%d", key: "completed"},
	{head: "evict", w: 6, verb: "%d", key: "evictions"},
	{head: "requeue", w: 8, verb: "%d", key: "requeues"},
}

// jobs returns a scheduler run's values for jobCols.
func jobs(res *sched.Result) []any {
	return []any{res.Submitted, res.Completed, res.Evictions, res.Requeues}
}

// policyArms returns one fleet-scheduler arm per placement policy, each
// running c under its policy and named name-policy.
func policyArms(name string, c sched.Config) []*arm {
	var arms []*arm
	for _, pol := range schedPolicies {
		run := c
		run.Policy = pol
		arms = append(arms, &arm{name: fmt.Sprintf("%s-%s", name, pol), fleet: &run})
	}
	return arms
}
