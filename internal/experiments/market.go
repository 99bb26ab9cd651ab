package experiments

import (
	"fmt"

	"smartharvest/internal/apps"
	"smartharvest/internal/cluster"
	"smartharvest/internal/market"
	"smartharvest/internal/sched"
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
// fleet samples arrivals from. No class means nil: cluster.Config keeps
// its default four-primaries mix and runs stay byte-identical to builds
// that never heard of the knob.
func tenantWorkloads(cfg Config) []apps.PrimarySpec {
	if cfg.TenantMix == nil {
		return nil
	}
	return apps.CharacterizedMix(cfg.Seed^charMixSalt, 4, *cfg.TenantMix, charTenantQPS)
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
var marketMixes = []struct {
	name     string
	reserved [3]int // cores of the spot, standard and premium pool
}{
	{"spot-heavy", [3]int{40, 10, 5}},
	{"balanced", [3]int{20, 20, 24}},
	{"premium-heavy", [3]int{10, 48, 32}},
}

// marketPlan is one point on the overcommit × tier-mix grid.
type marketPlan struct {
	mix string
	cfg market.Config
}

// marketPlans builds the pool-plan axis: the full overcommit × tier-mix
// grid, or the single user-supplied plan when cfg.Pools sets anything,
// be it only an overcommit (its own overcommit applies, defaulted like
// everywhere else).
func marketPlans(cfg Config) []marketPlan {
	if cfg.Pools.Enabled() || cfg.Pools.Overcommit != 0 {
		return []marketPlan{{mix: "custom", cfg: cfg.Pools}}
	}
	var plans []marketPlan
	for _, oc := range []float64{0.5, 1.5, 3.0} {
		for _, mix := range marketMixes {
			plans = append(plans, marketPlan{mix: mix.name, cfg: market.Config{Overcommit: oc, Pools: []market.PoolSpec{
				{Name: "s1", Tier: market.Spot, Reserved: mix.reserved[0], Price: 0.5},
				{Name: "m1", Tier: market.Standard, Reserved: mix.reserved[1]},
				{Name: "p1", Tier: market.Premium, Reserved: mix.reserved[2], Price: 2},
			}}})
		}
	}
	return plans
}

// Market sweeps the harvested-capacity market (internal/market) over
// overcommit ratio × tier mix × placement policy on the shared fleet:
// which pool requests each admission bound can honor, what each SLA
// tier's eviction budget absorbs before penalties accrue, and how much
// revenue-weighted goodput the admitted pools convert harvested cores
// into. Runs honor cfg.Check (job + pool invariants via check.JobChecker),
// cfg.TenantMix (characterized tenant workloads), and cfg.Pools (a
// user-supplied plan replacing the overcommit × mix grid).
func Market(cfg Config) (*Report, error) {
	plans, workloads := marketPlans(cfg), tenantWorkloads(cfg)
	secs := make([]*section, len(plans))
	for i, plan := range plans {
		secs[i] = &section{arms: policyArms(
			fmt.Sprintf("market-%s-oc%g", plan.mix, plan.cfg.EffectiveOvercommit()),
			sched.Config{Fleet: schedFleet(cfg, workloads), ArrivalRate: marketJobRate, Market: plan.cfg})}
	}
	err := sweep(cfg, secs...)

	r := &Report{ID: "market", Title: "harvested-capacity market: overcommit x tier mix x policy (extension)"}
	t := newTable(r,
		col{head: "oc", w: -4, verb: "%g", key: "overcommit"},
		col{head: "mix", w: -13, key: "mix"},
		col{head: "policy", w: -10, key: "policy"},
		col{head: "adm", w: 4, verb: "%d", key: "admitted"},
		col{head: "rej", w: 4, verb: "%d", key: "rejected"},
		col{head: "reserved", w: 9, verb: "%d", key: "reserved_cores"},
		col{head: "v-spot", w: 7, verb: "%d", key: "viol_spot"},
		col{head: "v-std", w: 7, verb: "%d", key: "viol_standard"},
		col{head: "v-prem", w: 7, verb: "%d", key: "viol_premium"},
		col{head: "revenue", w: 9, verb: "%.1f", key: "revenue"},
		col{head: "penalty", w: 9, verb: "%.1f", key: "penalties"},
		col{head: "rev-goodput", w: 12, verb: "%.1fs", key: "revenue_goodput"},
		col{key: "goodput_core_s", hide: true})
	for i, plan := range plans {
		for _, a := range secs[i].arms {
			res := a.sres
			if res == nil {
				continue
			}
			m := res.Market
			if m == nil {
				// A pool-less custom plan: the run is a plain sched run.
				m = &market.Result{}
			}
			reserved := 0
			for _, tier := range market.Tiers() {
				reserved += m.ReservedByTier[tier]
			}
			t.add("", plan.cfg.EffectiveOvercommit(), plan.mix, a.fleet.Policy, m.Admitted, m.Rejected, reserved,
				m.ViolationsByTier[market.Spot], m.ViolationsByTier[market.Standard],
				m.ViolationsByTier[market.Premium], m.Revenue, m.Penalties, m.RevenueGoodput,
				res.GoodputCoreSec)
		}
	}
	r.addf("(reserved counts admitted pools only; premium admission shrinks with overcommit, spot absorbs the evictions)")
	return r, err
}
