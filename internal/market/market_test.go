package market

import (
	"strings"
	"testing"

	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

func TestParseTierRoundTrip(t *testing.T) {
	for _, tier := range Tiers() {
		got, err := ParseTier(tier.String())
		if err != nil || got != tier {
			t.Fatalf("round trip %v: got %v, %v", tier, got, err)
		}
	}
	if _, err := ParseTier("platinum"); err == nil {
		t.Fatal("unknown tier parsed")
	}
	if Tier(99).String() != "unknown" {
		t.Fatal("out-of-range String")
	}
}

func TestTierEconomicsOrdered(t *testing.T) {
	// The tier ladder must be internally consistent: ascending tiers
	// shrink the overcommit exposure and raise the violation price.
	tiers := Tiers()
	for i := 1; i < len(tiers); i++ {
		lo, hi := tiers[i-1].Params(), tiers[i].Params()
		if hi.OvercommitFactor >= lo.OvercommitFactor {
			t.Fatalf("%v overcommit factor %v not below %v's %v",
				tiers[i], hi.OvercommitFactor, tiers[i-1], lo.OvercommitFactor)
		}
		if hi.PenaltyFactor <= lo.PenaltyFactor {
			t.Fatalf("%v penalty factor %v not above %v's %v",
				tiers[i], hi.PenaltyFactor, tiers[i-1], lo.PenaltyFactor)
		}
	}
	if Spot.Params().EvictionBudget >= 0 {
		t.Fatal("spot should carry an unlimited eviction budget")
	}
	if Premium.Params().EvictionBudget >= Standard.Params().EvictionBudget {
		t.Fatal("premium budget should be tighter than standard's")
	}
}

func TestParsePoolsRoundTrip(t *testing.T) {
	cases := []string{
		"",
		"name=a,tier=spot,reserved=4",
		"overcommit=2;name=a,tier=spot,reserved=4,size=40s,price=0.5",
		"name=a,tier=standard,reserved=2,at=3s;name=b,tier=premium,reserved=1,price=4",
	}
	for _, in := range cases {
		c, err := ParsePools(in)
		if err != nil {
			t.Fatalf("ParsePools(%q): %v", in, err)
		}
		back, err := ParsePools(strings.ReplaceAll(c.String(), "none", ""))
		if err != nil {
			t.Fatalf("re-parse of %q (from %q): %v", c.String(), in, err)
		}
		if back.String() != c.String() {
			t.Fatalf("round trip drifted: %q -> %q -> %q", in, c.String(), back.String())
		}
	}
	if c, _ := ParsePools(""); c.Enabled() || c.String() != "none" {
		t.Fatal("empty string should be the disabled config")
	}
}

func TestParsePoolsRejectsGarbage(t *testing.T) {
	bad := []string{
		"name=a",                              // no reserved cores
		"tier=spot,reserved=4",                // no name
		"name=a,tier=gold,reserved=4",         // unknown tier
		"name=a,tier=spot,reserved=0",         // reserved below 1
		"name=a,tier=spot,reserved=-2",        // negative reservation
		"name=a,reserved=four",                // non-numeric
		"name=a,reserved=4,size=-3s",          // negative size
		"name=a,reserved=4,at=-1s",            // negative open time
		"name=a,reserved=4,price=-1",          // negative price
		"name=a,reserved=4;name=a,reserved=2", // duplicate name
		"name=a,reserved=4,flavor=large",      // unknown key
		"name=a,reserved=4,size",              // bare key
		"overcommit=-1;name=a,reserved=4",     // negative overcommit
		"overcommit=x",                        // non-numeric overcommit
		"name=a b,reserved=4",                 // space in name
	}
	for _, in := range bad {
		if _, err := ParsePools(in); err == nil {
			t.Fatalf("ParsePools(%q) accepted garbage", in)
		}
	}
}

func TestLedgerAdmissionBound(t *testing.T) {
	cfg, err := ParsePools("overcommit=1.5;name=s1,tier=spot,reserved=10;name=s2,tier=spot,reserved=21;name=p,tier=premium,reserved=8")
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(16)
	l, err := NewLedger(cfg, 1, func() sim.Time { return 0 }, ring)
	if err != nil {
		t.Fatal(err)
	}
	// Forecast 10 cores: spot bound = 1.5×2.0×10 = 30, premium bound =
	// 1.5×0.5×10 = 7.5.
	if p := l.TryOpen(0, 10); p == nil || !p.Admitted {
		t.Fatal("s1 (10 of 30 spot cores) should be admitted")
	}
	if p := l.TryOpen(1, 10); p != nil {
		t.Fatal("s2 (10+21 > 30 spot cores) should be rejected")
	}
	if p := l.TryOpen(2, 10); p != nil {
		t.Fatal("p (8 > 7.5 premium cores) should be rejected")
	}
	if ring.Total(obs.KindPoolOpen) != 1 || ring.Total(obs.KindPoolReject) != 2 {
		t.Fatalf("events: %d opens, %d rejects", ring.Total(obs.KindPoolOpen), ring.Total(obs.KindPoolReject))
	}
	r := l.Result()
	if r.Admitted != 1 || r.Rejected != 2 || r.ReservedByTier[Spot] != 10 {
		t.Fatalf("result: %+v", r)
	}
}

func TestLedgerRefillDrainConservation(t *testing.T) {
	cfg, _ := ParsePools("overcommit=10;name=a,tier=spot,reserved=3,size=10s;name=b,tier=spot,reserved=1,size=10s")
	l, err := NewLedger(cfg, 1, func() sim.Time { return 0 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := l.TryOpen(0, 100), l.TryOpen(1, 100)
	if a == nil || b == nil {
		t.Fatal("pools not admitted at overcommit 10")
	}
	// 8 harvested cores over 1 s split 3:1 across the reservations.
	l.Refill(8, sim.Second)
	if a.Balance != 6*sim.Second || b.Balance != 2*sim.Second {
		t.Fatalf("refill split: a=%v b=%v, want 6s/2s", a.Balance, b.Balance)
	}
	// Draining beyond the balance is clipped and reported short.
	if got := l.Drain(b, 3*sim.Second); got != 2*sim.Second {
		t.Fatalf("short drain returned %v, want 2s", got)
	}
	if b.Balance != 0 || b.Consumed != 2*sim.Second {
		t.Fatalf("after drain: balance %v consumed %v", b.Balance, b.Consumed)
	}
	// Refills cap at the pool size; the excess is forfeited.
	l.Refill(100, sim.Second)
	if a.Balance != a.Spec.Size {
		t.Fatalf("balance %v overflowed size %v", a.Balance, a.Spec.Size)
	}
	if b.Revenue() != 2*b.Spec.Price {
		t.Fatalf("revenue %v, want %v", b.Revenue(), 2*b.Spec.Price)
	}
}

func TestLedgerEvictionBudgetAndPenalty(t *testing.T) {
	cfg, _ := ParsePools("overcommit=10;name=p,tier=premium,reserved=1,price=2")
	l, err := NewLedger(cfg, 1, func() sim.Time { return 0 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := l.TryOpen(0, 100)
	if p == nil {
		t.Fatal("pool not admitted")
	}
	l.CapacityEvict(p, "job-0") // within the premium budget of 1
	if p.Violations != 0 || p.Penalties != 0 {
		t.Fatalf("first eviction charged: %+v", p)
	}
	l.CapacityEvict(p, "job-1") // beyond it
	want := Premium.Params().PenaltyFactor * 2
	if p.Violations != 1 || p.Penalties != want {
		t.Fatalf("violation not priced: violations=%d penalties=%v want %v",
			p.Violations, p.Penalties, want)
	}
	l.ExhaustedEvict(p, "job-2") // customer exposure, never charged
	if p.Violations != 1 || p.Evictions != 2 {
		t.Fatalf("exhausted eviction charged the SLA budget: %+v", p)
	}
}

func TestLedgerAssignPoolDeterministicAndWeighted(t *testing.T) {
	cfg, _ := ParsePools("overcommit=10;name=big,tier=spot,reserved=9;name=small,tier=spot,reserved=1")
	build := func() *Ledger {
		l, err := NewLedger(cfg, 7, func() sim.Time { return 0 }, nil)
		if err != nil {
			t.Fatal(err)
		}
		if l.AssignPool() != nil {
			t.Fatal("assignment before any pool opened should draw nothing")
		}
		l.TryOpen(0, 100)
		l.TryOpen(1, 100)
		return l
	}
	a, b := build(), build()
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		pa, pb := a.AssignPool(), b.AssignPool()
		if pa.Spec.Name != pb.Spec.Name {
			t.Fatalf("draw %d diverged across same-seed ledgers", i)
		}
		counts[pa.Spec.Name]++
	}
	if counts["big"] < 800 || counts["small"] == 0 {
		t.Fatalf("weighting off: %v", counts)
	}
}

func TestConfigInertWhenDisabled(t *testing.T) {
	var c Config
	if c.Enabled() {
		t.Fatal("zero config enabled")
	}
	if c.EffectiveOvercommit() != DefaultOvercommit {
		t.Fatalf("effective overcommit %v, want default %v", c.EffectiveOvercommit(), DefaultOvercommit)
	}
}

// BenchmarkAdmission: one iteration opens a three-tier pool plan
// against a fixed forecast and assigns 64 jobs.
func BenchmarkAdmission(b *testing.B) {
	cfg, err := ParsePools("name=s,tier=spot,reserved=8;name=m,tier=standard,reserved=4;name=p,tier=premium,reserved=2")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l, err := NewLedger(cfg, 1, func() sim.Time { return 0 }, nil)
		if err != nil {
			b.Fatal(err)
		}
		for s := range l.Specs() {
			l.TryOpen(s, 16)
		}
		for j := 0; j < 64; j++ {
			if l.AssignPool() == nil {
				b.Fatal("no pool assigned")
			}
		}
	}
}
