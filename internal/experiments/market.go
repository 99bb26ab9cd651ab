package experiments

import (
	"fmt"

	"smartharvest/internal/apps"
	"smartharvest/internal/cluster"
	"smartharvest/internal/market"
	"smartharvest/internal/sched"
	"smartharvest/internal/workload"
)

// marketJobRate is the fleet-job arrival rate the market experiment runs
// at: high enough that pool balances and the eviction budgets are
// genuinely contended on the shared fleet.
const marketJobRate = 3

// charTenantQPS is the per-VM offered load when cfg.TenantMix replaces
// the default tenant workloads with a characterization class (the same
// load the predictor ablation uses: ~1.7 avg busy cores at the 57 µs
// memcached service time).
const charTenantQPS = 30000

// charMixSalt decorrelates the shared burst schedule's seed from the
// scenario seed without touching any scenario RNG stream.
const charMixSalt = 0xC11A55AB1E

// tenantWorkloads maps cfg.TenantMix to the tenant workload list the
// fleet samples arrivals from. Empty means nil: cluster.Config keeps its
// default four-primaries mix and runs stay byte-identical to builds
// that never heard of the knob.
func tenantWorkloads(cfg Config) ([]apps.PrimarySpec, error) {
	if cfg.TenantMix == "" {
		return nil, nil
	}
	class, err := workload.ParseClass(cfg.TenantMix)
	if err != nil {
		return nil, fmt.Errorf("experiments: tenant mix: %w", err)
	}
	return apps.CharacterizedMix(cfg.Seed^charMixSalt, 4, class, charTenantQPS), nil
}

// schedFleet is the fleet the job-scheduler experiments (sched,
// fleetchaos, market) run on: four servers under moderate tenant churn, so harvested
// capacity is plentiful on average but collapses locally.
func schedFleet(cfg Config, workloads []apps.PrimarySpec) cluster.Config {
	return cluster.Config{
		Servers:      4,
		ArrivalRate:  1.2,
		MeanLifetime: cfg.Duration / 2,
		Duration:     cfg.Duration,
		Warmup:       cfg.Warmup,
		Seed:         cfg.Seed,
		Faults:       cfg.Faults,
		Workloads:    workloads,
	}
}

// marketMixes is the tier-mix axis: how the customers' reserved cores
// split across the eviction-SLA ladder. Reservations are sized against
// the four-server fleet's ~76-core forecast so the admission bound
// genuinely bites: at overcommit 0.5 the premium bound (~19 cores)
// rejects the balanced and premium-heavy premium pools and the standard
// bound (~38) rejects premium-heavy's standard pool, while 1.5 and 3.0
// admit everything. Prices follow the SLA ladder — spot capacity sells
// at a discount, premium at a markup.
func marketMixes() []struct{ name, pools string } {
	return []struct{ name, pools string }{
		{"spot-heavy", "name=s1,tier=spot,reserved=40,price=0.5;name=m1,tier=standard,reserved=10;name=p1,tier=premium,reserved=5,price=2"},
		{"balanced", "name=s1,tier=spot,reserved=20,price=0.5;name=m1,tier=standard,reserved=20;name=p1,tier=premium,reserved=24,price=2"},
		{"premium-heavy", "name=s1,tier=spot,reserved=10,price=0.5;name=m1,tier=standard,reserved=48;name=p1,tier=premium,reserved=32,price=2"},
	}
}

// marketPlan is one point on the overcommit × tier-mix grid.
type marketPlan struct {
	mix string
	oc  float64
	cfg market.Config
}

// marketPlans builds the pool-plan axis: the full overcommit × tier-mix
// grid, or the single user-supplied plan when cfg.Pools is set (its own
// overcommit applies, defaulted like everywhere else).
func marketPlans(cfg Config) ([]marketPlan, error) {
	if cfg.Pools != "" {
		mc, err := market.ParsePools(cfg.Pools)
		if err != nil {
			return nil, fmt.Errorf("experiments: market pools: %w", err)
		}
		return []marketPlan{{mix: "custom", oc: mc.EffectiveOvercommit(), cfg: mc}}, nil
	}
	var plans []marketPlan
	for _, oc := range []float64{0.5, 1.5, 3.0} {
		for _, mix := range marketMixes() {
			mc, err := market.ParsePools(mix.pools)
			if err != nil {
				return nil, fmt.Errorf("experiments: market mix %s: %w", mix.name, err)
			}
			mc.Overcommit = oc
			plans = append(plans, marketPlan{mix: mix.name, oc: oc, cfg: mc})
		}
	}
	return plans, nil
}

// Market sweeps the harvested-capacity market (internal/market) over
// overcommit ratio × tier mix × placement policy on the shared fleet:
// which pool requests each admission bound can honor, what each SLA
// tier's eviction budget absorbs before penalties accrue, and how much
// revenue-weighted goodput the admitted pools convert harvested cores
// into. Every run is an independent, fully seeded simulation collected
// by index, so the report is byte-identical at any cfg.Parallel. Runs
// honor cfg.Check (job + pool invariants via check.JobChecker),
// cfg.TenantMix (characterized tenant workloads), and cfg.Pools (a
// user-supplied plan replacing the overcommit × mix grid).
func Market(cfg Config) (*Report, error) {
	workloads, err := tenantWorkloads(cfg)
	if err != nil {
		return nil, err
	}
	plans, err := marketPlans(cfg)
	if err != nil {
		return nil, err
	}
	policies := []sched.Policy{sched.FirstFit, sched.BestFit, sched.Predicted}
	type spec struct {
		plan marketPlan
		pol  sched.Policy
	}
	var specs []spec
	for _, plan := range plans {
		for _, pol := range policies {
			specs = append(specs, spec{plan, pol})
		}
	}

	runs := make([]sched.Config, len(specs))
	for i, sp := range specs {
		runs[i] = sched.Config{
			Fleet:       schedFleet(cfg, workloads),
			Policy:      sp.pol,
			ArrivalRate: marketJobRate,
			Market:      sp.plan.cfg,
		}
	}
	results, err := runSched(cfg, runs, func(i int) string {
		sp := specs[i]
		return fmt.Sprintf("market %s/%s oc=%g", sp.plan.mix, sp.pol, sp.plan.oc)
	})

	r := &Report{ID: "market", Title: "harvested-capacity market: overcommit x tier mix x policy (extension)"}
	r.addf("%-4s %-13s %-10s %4s %4s %9s %7s %7s %7s %9s %9s %12s",
		"oc", "mix", "policy", "adm", "rej", "reserved", "v-spot", "v-std", "v-prem", "revenue", "penalty", "rev-goodput")
	for i, res := range results {
		if res == nil {
			continue
		}
		sp := specs[i]
		m := res.Market
		if m == nil {
			// A pool-less custom plan: the run is a plain sched run.
			m = &market.Result{}
		}
		reserved := 0
		for _, tier := range market.Tiers() {
			reserved += m.ReservedByTier[tier]
		}
		r.addf("%-4g %-13s %-10s %4d %4d %9d %7d %7d %7d %9.1f %9.1f %11.1fs",
			sp.plan.oc, sp.plan.mix, sp.pol, m.Admitted, m.Rejected, reserved,
			m.ViolationsByTier[market.Spot], m.ViolationsByTier[market.Standard],
			m.ViolationsByTier[market.Premium], m.Revenue, m.Penalties, m.RevenueGoodput)
		r.row("", N("overcommit", sp.plan.oc), S("mix", sp.plan.mix), S("policy", sp.pol.String()),
			N("admitted", float64(m.Admitted)), N("rejected", float64(m.Rejected)),
			N("reserved_cores", float64(reserved)),
			N("viol_spot", float64(m.ViolationsByTier[market.Spot])),
			N("viol_standard", float64(m.ViolationsByTier[market.Standard])),
			N("viol_premium", float64(m.ViolationsByTier[market.Premium])),
			N("revenue", m.Revenue), N("penalties", m.Penalties),
			N("revenue_goodput", m.RevenueGoodput), N("goodput_core_s", res.GoodputCoreSec))
	}
	r.addf("(reserved counts admitted pools only; premium admission shrinks with overcommit, spot absorbs the evictions)")
	return r, err
}
