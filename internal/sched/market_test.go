package sched

import (
	"bytes"
	"strings"
	"testing"

	"smartharvest/internal/check"
	"smartharvest/internal/cluster"
	"smartharvest/internal/market"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

func mustPools(t *testing.T, s string) market.Config {
	t.Helper()
	c, err := market.ParsePools(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// marketTrace runs cfg with a JSONL trace attached and returns the
// bytes plus the run result.
func marketTrace(t *testing.T, cfg Config) ([]byte, *Result) {
	t.Helper()
	var buf bytes.Buffer
	w := obs.NewJSONL(&buf)
	cfg.Fleet.Observer = w
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

func TestSchedMarketPoolLifecycle(t *testing.T) {
	t.Parallel()
	c := check.NewJobChecker()
	pools := mustPools(t, "overcommit=8;name=cheap,tier=spot,reserved=6,price=0.5,at=3s;name=mid,tier=standard,reserved=3,at=3s;name=gold,tier=premium,reserved=1,price=4,at=3s")
	res, err := Run(Config{
		Fleet:       churnFleet(41),
		Policy:      FirstFit,
		ArrivalRate: 2,
		Market:      pools,
		Checker:     c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Check.OK() {
		t.Fatalf("invariant violations: %v", res.Check.Violations[0])
	}
	m := res.Market
	if m == nil {
		t.Fatal("no market result on a pooled run")
	}
	if m.Admitted == 0 {
		t.Fatal("no pool admitted at overcommit 8")
	}
	if res.Completed == 0 {
		t.Fatal("no jobs completed against pool balances")
	}
	if m.Revenue <= 0 {
		t.Fatalf("revenue %v, want positive (jobs consumed balance)", m.Revenue)
	}
	if m.RevenueGoodput <= 0 {
		t.Fatalf("revenue-weighted goodput %v, want positive", m.RevenueGoodput)
	}
	var consumed sim.Time
	for _, p := range m.Pools {
		if !p.Admitted {
			continue
		}
		if p.Balance < 0 || p.Balance > p.Size {
			t.Fatalf("pool %s balance %v outside [0, %v]", p.Name, p.Balance, p.Size)
		}
		consumed += p.Consumed
	}
	if consumed <= 0 {
		t.Fatal("admitted pools drained nothing")
	}
}

func TestSchedMarketEvictsSpotFirst(t *testing.T) {
	t.Parallel()
	// Heavy churn collapses harvest under commitments; the market must
	// route those preemptions to spot members before higher tiers. The
	// checker's tier-ordering invariant verifies every capacity eviction
	// against the victims still running, so a clean report plus nonzero
	// spot evictions is the whole property.
	c := check.NewJobChecker()
	pools := mustPools(t, "overcommit=8;name=cheap,tier=spot,reserved=6,at=3s;name=gold,tier=premium,reserved=1,at=3s")
	res, err := Run(Config{
		Fleet:       churnFleet(43),
		Policy:      FirstFit,
		ArrivalRate: 3,
		Market:      pools,
		Checker:     c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Check.OK() {
		t.Fatalf("tier-ordering violations: %v", res.Check.Violations[0])
	}
	if res.Evictions == 0 {
		t.Fatal("no evictions under heavy churn; collapse not exercised")
	}
	m := res.Market
	if m.EvictionsByTier[market.Spot] == 0 {
		t.Fatalf("no spot evictions though %d jobs were preempted", res.Evictions)
	}
}

func TestSchedMarketExhaustedPoolEvicts(t *testing.T) {
	t.Parallel()
	// Two pools: "big" soaks up 9/10 of every refill, so "tiny"'s
	// members outrun their 1/10 share and hit a dry balance. Exhausted
	// evictions carry no SLA charge (the checker verifies each one
	// against the tracked balance), so they show up as the gap between
	// total pool evictions and the budget-charged capacity ones.
	c := check.NewJobChecker()
	m := obs.NewMetrics()
	fc := quietFleet(47)
	fc.Observer = m
	pools := mustPools(t, "overcommit=8;name=big,tier=spot,reserved=9,at=3s;name=tiny,tier=standard,reserved=1,size=500ms,at=3s")
	res, err := Run(Config{
		Fleet:       fc,
		Policy:      FirstFit,
		ArrivalRate: 2,
		Market:      pools,
		Checker:     c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Check.OK() {
		t.Fatalf("invariant violations: %v", res.Check.Violations[0])
	}
	capacity := 0
	for _, p := range res.Market.Pools {
		capacity += p.Evictions
	}
	exhausted := int(m.PoolEvictions) - capacity
	if exhausted <= 0 {
		t.Fatalf("a starved 500ms pool never ran dry (%d pool evictions, all capacity)",
			m.PoolEvictions)
	}
}

func TestSchedMarketOvercommitRejects(t *testing.T) {
	t.Parallel()
	c := check.NewJobChecker()
	pools := mustPools(t, "overcommit=0.001;name=wish,tier=premium,reserved=50,at=3s")
	res, err := Run(Config{
		Fleet:   quietFleet(53),
		Policy:  FirstFit,
		Market:  pools,
		Checker: c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Check.OK() {
		t.Fatalf("invariant violations: %v", res.Check.Violations[0])
	}
	if res.Market.Rejected != 1 || res.Market.Admitted != 0 {
		t.Fatalf("admission at overcommit 0.001: %+v", res.Market)
	}
	// With no admitted pool there is nothing to place against.
	if res.Completed != 0 {
		t.Fatalf("%d jobs completed with every pool rejected", res.Completed)
	}
}

func TestSchedMarketZeroConfigInert(t *testing.T) {
	t.Parallel()
	// The acceptance bar for the whole subsystem: a run with no pool
	// plan must be byte-identical to one that never heard of the market
	// (and carries no pool events), even with a non-default overcommit
	// knob dangling.
	base := Config{Fleet: churnFleet(7), Policy: Predicted}
	withKnob := base
	withKnob.Market = market.Config{Overcommit: 3}
	a, _ := marketTrace(t, base)
	b, _ := marketTrace(t, withKnob)
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("a pool-less market config perturbed the run: %d vs %d trace bytes", len(a), len(b))
	}
	if bytes.Contains(a, []byte(`"ev":"pool-`)) {
		t.Fatal("pool events in a no-pool trace")
	}
}

func TestSchedMarketDeterministic(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Fleet:       churnFleet(59),
		Policy:      BestFit,
		ArrivalRate: 2,
		Market:      mustPools(t, "name=a,tier=spot,reserved=4,at=3s;name=b,tier=standard,reserved=2,at=4s"),
	}
	a, resA := marketTrace(t, cfg)
	b, resB := marketTrace(t, cfg)
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed market runs diverged: %d vs %d trace bytes", len(a), len(b))
	}
	if !strings.Contains(string(a), `"ev":"pool-`) {
		t.Fatal("no pool events in a pooled trace")
	}
	if resA.Market.Revenue != resB.Market.Revenue {
		t.Fatalf("revenue diverged: %v vs %v", resA.Market.Revenue, resB.Market.Revenue)
	}
}

func TestSchedMarketLeavesTenantsUntouched(t *testing.T) {
	t.Parallel()
	// Opening pools must not shift the tenant process: the ledger draws
	// from its own RNG stream, so a pooled run places and rejects
	// exactly the tenants a plain cluster run does.
	fleetCfg := churnFleet(61)
	fleetCfg.DisableElasticBully = true
	plain, err := cluster.Run(fleetCfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Fleet:  churnFleet(61),
		Policy: FirstFit,
		Market: mustPools(t, "name=a,tier=spot,reserved=4,at=3s"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Placed != res.Fleet.Placed || plain.Rejected != res.Fleet.Rejected ||
		plain.Departed != res.Fleet.Departed {
		t.Fatalf("tenant stream perturbed: plain %d/%d/%d, market %d/%d/%d",
			plain.Placed, plain.Rejected, plain.Departed,
			res.Fleet.Placed, res.Fleet.Rejected, res.Fleet.Departed)
	}
}

func TestSchedMarketConfigValidation(t *testing.T) {
	t.Parallel()
	if _, err := Run(Config{
		Fleet:  quietFleet(1),
		Market: market.Config{Pools: []market.PoolSpec{{Name: "", Reserved: 4}}},
	}); err == nil {
		t.Fatal("nameless pool accepted")
	}
	if _, err := Run(Config{
		Fleet:  quietFleet(1),
		Market: market.Config{Overcommit: -1, Pools: []market.PoolSpec{{Name: "a", Reserved: 4}}},
	}); err == nil {
		t.Fatal("negative overcommit accepted")
	}
}
