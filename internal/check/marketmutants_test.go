package check_test

// Capacity-market mutant gallery: capture the job + pool event stream of
// a real pooled scheduler run under tenant churn (pool opens, a
// rejection, grants, per-tick accounting, budget-charged evictions, and
// settlements all appear), then replay deliberately corrupted copies —
// each modeling a plausible ledger bug — into fresh JobCheckers and
// assert every mutant trips the matching market invariant while the
// unmodified stream stays clean. Synthetic streams pin the two
// properties a single-field mutation cannot reach deterministically:
// tier-ordered eviction and exhausted-eviction balance.

import (
	"testing"

	"smartharvest/internal/check"
	"smartharvest/internal/cluster"
	"smartharvest/internal/market"
	"smartharvest/internal/obs"
	"smartharvest/internal/sched"
	"smartharvest/internal/sim"
)

// marketMutantPools is the baseline pool plan: an admitted spot and
// standard pool plus a premium request far past any plausible bound, so
// the stream provably carries both an open and a rejection.
const marketMutantPools = "overcommit=8;name=cheap,tier=spot,reserved=6,at=3s;name=mid,tier=standard,reserved=2,at=3s;name=wish,tier=premium,reserved=400,at=3s"

func marketMutantConfig(t *testing.T) market.Config {
	t.Helper()
	c, err := market.ParsePools(marketMutantPools)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// captureMarketStream runs a churn-heavy pooled scheduler simulation and
// returns its job and pool events in order. The run is deterministic, so
// every subtest mutates the same baseline; the seed is chosen so the
// stream provably contains a pool open, a rejection, grants, accounting
// ticks, an SLA-violating capacity eviction, and settlements.
func captureMarketStream(t *testing.T) []obs.Record {
	t.Helper()
	ring := obs.NewRing(streamCap)
	res, err := sched.Run(sched.Config{
		Fleet: cluster.Config{
			Servers:      jobMutantServers,
			ArrivalRate:  2.5,
			MeanLifetime: 3 * sim.Second,
			Duration:     40 * sim.Second,
			Warmup:       2 * sim.Second,
			Seed:         1,
			Observer:     ring,
		},
		Policy:      sched.FirstFit,
		ArrivalRate: 2,
		MaxRequeues: jobMutantMaxRequeues,
		Market:      marketMutantConfig(t),
	})
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if res.Market == nil || res.Market.Admitted == 0 || res.Market.Rejected == 0 {
		t.Fatalf("baseline market too quiet: %+v", res.Market)
	}
	violations := 0
	for _, tier := range market.Tiers() {
		violations += res.Market.ViolationsByTier[tier]
	}
	if violations == 0 {
		t.Fatal("baseline run has no SLA-violating eviction to mutate")
	}
	var out []obs.Record
	for _, r := range recorded(t, ring) {
		switch r.Kind {
		case obs.KindJobSubmit, obs.KindJobStart, obs.KindJobEvict,
			obs.KindJobRequeue, obs.KindJobComplete, obs.KindJobSLOMiss,
			obs.KindPoolOpen, obs.KindPoolReject, obs.KindPoolGrant,
			obs.KindPoolAccount, obs.KindPoolEvict, obs.KindPoolSettle:
			out = append(out, r)
		}
	}
	return out
}

// boundMarket returns a JobChecker bound to the baseline run's shape,
// market config included (the checker recomputes every bound and charge
// from it).
func boundMarket(t *testing.T) *check.JobChecker {
	t.Helper()
	c := check.NewJobChecker()
	if err := c.Bind(check.JobConfig{
		MaxRequeues: jobMutantMaxRequeues,
		Servers:     jobMutantServers,
		Market:      marketMutantConfig(t),
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMarketMutantGallery(t *testing.T) {
	base := captureMarketStream(t)

	t.Run("clean baseline passes", func(t *testing.T) {
		rep := replay(boundMarket(t), base)
		wantClean(t, rep)
		if rep.Events != uint64(len(base)) {
			t.Fatalf("checker saw %d events, stream has %d", rep.Events, len(base))
		}
	})

	isOpen := func(r obs.Record) bool { return r.Kind == obs.KindPoolOpen }
	isReject := func(r obs.Record) bool { return r.Kind == obs.KindPoolReject }
	isGrant := func(r obs.Record) bool { return r.Kind == obs.KindPoolGrant }
	isAccount := func(r obs.Record) bool { return r.Kind == obs.KindPoolAccount }
	isViolatingEvict := func(r obs.Record) bool {
		return r.Kind == obs.KindPoolEvict && r.PoolEvict.Reason == "capacity" &&
			r.PoolEvict.SLAViolation
	}
	isSettle := func(r obs.Record) bool {
		return r.Kind == obs.KindPoolSettle && r.PoolSettle.Consumed > 0
	}

	mutants := []struct {
		name      string
		invariant string
		mutate    func(recs []obs.Record) []obs.Record
	}{
		{
			// A refill/drain tick that does not balance: the ledger leaked
			// (or minted) core-time between ticks.
			name:      "accounting tick breaks conservation",
			invariant: check.InvPoolConservation,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "pool account", isAccount)
				recs[i].PoolAccount.Balance += sim.Millisecond
				return recs
			},
		},
		{
			// A job is funded by a pool whose balance is already dry — the
			// admission gate on placement was skipped.
			name:      "grant from a drained pool",
			invariant: check.InvPoolConservation,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "pool grant", isGrant)
				recs[i].PoolGrant.Balance = 0
				return recs
			},
		},
		{
			// The admission decision advertises a looser bound than the
			// overcommit rule allows — the classic fudged multiplier.
			name:      "admission claims a looser bound",
			invariant: check.InvOvercommitBound,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "pool open", isOpen)
				recs[i].PoolOpen.Bound *= 2
				return recs
			},
		},
		{
			// The pool slips in more reserved cores than the tier bound
			// admits — fleet-wide overcommit exposure is breached.
			name:      "pool admitted beyond the bound",
			invariant: check.InvOvercommitBound,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "pool open", isOpen)
				recs[i].PoolOpen.Reserved += 100000
				return recs
			},
		},
		{
			// A pool that fits the bound is rejected anyway — admission is
			// turning away revenue the forecast supports.
			name:      "rejection of a fitting pool",
			invariant: check.InvOvercommitBound,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "pool reject", isReject)
				recs[i].PoolReject.Reserved = 0
				return recs
			},
		},
		{
			// An over-budget eviction is waved through without the SLA
			// flag or its penalty — the violation meter is disconnected.
			name:      "eviction skips the SLA meter",
			invariant: check.InvPenaltyAccounting,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "violating evict", isViolatingEvict)
				recs[i].PoolEvict.SLAViolation = false
				recs[i].PoolEvict.Penalty = 0
				return recs
			},
		},
		{
			// The violation is flagged but priced below the tier's penalty
			// factor — undercharging the platform's own SLA.
			name:      "penalty mispriced",
			invariant: check.InvPenaltyAccounting,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "violating evict", isViolatingEvict)
				recs[i].PoolEvict.Penalty /= 2
				return recs
			},
		},
		{
			// The eviction counter jumps — budget progress is charged for
			// an eviction that never happened.
			name:      "eviction count drifts",
			invariant: check.InvPenaltyAccounting,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "violating evict", isViolatingEvict)
				recs[i].PoolEvict.Evictions++
				return recs
			},
		},
		{
			// Settlement reports less revenue than the consumed core-time
			// at the pool's price — the books do not reconcile.
			name:      "settlement hides revenue",
			invariant: check.InvPenaltyAccounting,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "consuming settle", isSettle)
				recs[i].PoolSettle.Revenue /= 2
				return recs
			},
		},
		{
			// Settlement's consumed total disagrees with the accounted
			// drains — core-time vanished between the ticks and the bill.
			name:      "settlement loses consumed core-time",
			invariant: check.InvPoolConservation,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "consuming settle", isSettle)
				recs[i].PoolSettle.Consumed -= sim.Millisecond
				return recs
			},
		},
	}

	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			recs := m.mutate(append([]obs.Record(nil), base...))
			rep := replay(boundMarket(t), recs)
			wantViolation(t, rep, m.invariant)
		})
	}
}

// marketTwoTierChecker binds a checker to a two-pool plan and feeds the
// shared prologue of the synthetic tier tests: both pools open, both
// jobs start on server 0, and one accounting tick funds the balances.
func marketTwoTierChecker(t *testing.T) *check.JobChecker {
	t.Helper()
	cfg, err := market.ParsePools("name=s,tier=spot,reserved=4;name=p,tier=premium,reserved=1")
	if err != nil {
		t.Fatal(err)
	}
	c := check.NewJobChecker()
	if err := c.Bind(check.JobConfig{MaxRequeues: 3, Servers: 1, Market: cfg}); err != nil {
		t.Fatal(err)
	}
	// Opens at forecast 10: spot bound 1.5×2×10=30, premium 1.5×0.5×10=7.5.
	c.OnPoolOpen(obs.PoolOpen{
		At: sim.Second, Pool: "s", Tier: "spot", Reserved: 4,
		Size: 40 * sim.Second, Price: 1, Forecast: 10, Bound: 30, Committed: 4,
	})
	c.OnPoolOpen(obs.PoolOpen{
		At: sim.Second, Pool: "p", Tier: "premium", Reserved: 1,
		Size: 10 * sim.Second, Price: 1, Forecast: 10, Bound: 7.5, Committed: 1,
	})
	c.OnPoolAccount(obs.PoolAccount{
		At: sim.Second, Pool: "s", Refill: 2 * sim.Second, Drain: 0, Balance: 2 * sim.Second,
	})
	c.OnPoolAccount(obs.PoolAccount{
		At: sim.Second, Pool: "p", Refill: sim.Second, Drain: 0, Balance: sim.Second,
	})
	for i, pool := range []string{"s", "p"} {
		job, tier := "job-0", "spot"
		bal := 2 * sim.Second
		if pool == "p" {
			job, tier, bal = "job-1", "premium", sim.Second
		}
		c.OnJobSubmit(obs.JobSubmit{
			At: sim.Time(2+i) * sim.Second, Job: job, Work: 10 * sim.Second, Width: 2,
		})
		c.OnJobStart(obs.JobStart{
			At: sim.Time(2+i) * sim.Second, Job: job, Server: 0,
			Grant: 1, Harvest: 4, Attempt: 1, Remaining: 10 * sim.Second,
		})
		c.OnPoolGrant(obs.PoolGrant{
			At: sim.Time(2+i) * sim.Second, Job: job, Pool: pool, Tier: tier, Balance: bal,
		})
	}
	return c
}

// TestMarketMutantTierInversion pins eviction ordering with a synthetic
// stream: a premium member is preempted for capacity while a spot member
// keeps running on the same server — spot must absorb collapses first.
func TestMarketMutantTierInversion(t *testing.T) {
	c := marketTwoTierChecker(t)
	c.OnPoolEvict(obs.PoolEvict{
		At: 5 * sim.Second, Job: "job-1", Pool: "p", Tier: "premium",
		Reason: "capacity", Evictions: 1, SLAViolation: false, Penalty: 0,
	})
	c.OnJobEvict(obs.JobEvict{
		At: 5 * sim.Second, Job: "job-1", Server: 0, Progress: 0, Evictions: 1, Final: false,
	})
	wantViolation(t, c.Finish(), check.InvTierOrdering)
}

// TestMarketMutantTierOrderClean is the control: evicting the spot
// member while the premium one survives is exactly the contract.
func TestMarketMutantTierOrderClean(t *testing.T) {
	c := marketTwoTierChecker(t)
	c.OnPoolEvict(obs.PoolEvict{
		At: 5 * sim.Second, Job: "job-0", Pool: "s", Tier: "spot",
		Reason: "capacity", Evictions: 1, SLAViolation: false, Penalty: 0,
	})
	c.OnJobEvict(obs.JobEvict{
		At: 5 * sim.Second, Job: "job-0", Server: 0, Progress: 0, Evictions: 1, Final: false,
	})
	c.OnJobRequeue(obs.JobRequeue{
		At: 5 * sim.Second, Job: "job-0", Evictions: 1, Remaining: 10 * sim.Second,
	})
	wantClean(t, c.Finish())
}

// TestMarketMutantExhaustionWithBalance pins the exhausted-eviction
// contract: claiming a pool ran dry while its tracked balance is
// positive is a conservation violation.
func TestMarketMutantExhaustionWithBalance(t *testing.T) {
	c := marketTwoTierChecker(t)
	c.OnPoolEvict(obs.PoolEvict{
		At: 5 * sim.Second, Job: "job-0", Pool: "s", Tier: "spot",
		Reason: "exhausted", Evictions: 0, SLAViolation: false, Penalty: 0,
	})
	c.OnJobEvict(obs.JobEvict{
		At: 5 * sim.Second, Job: "job-0", Server: 0, Progress: 0, Evictions: 1, Final: false,
	})
	wantViolation(t, c.Finish(), check.InvPoolConservation)
}
