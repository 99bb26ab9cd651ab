package cluster

import (
	"math"
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/core"
	"smartharvest/internal/faults"
	"smartharvest/internal/harness"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

func TestFleetHarvestsIdleCapacity(t *testing.T) {
	res, err := Run(Config{
		Servers:      4,
		ArrivalRate:  0.8,
		MeanLifetime: 15 * sim.Second,
		Duration:     20 * sim.Second,
		Warmup:       2 * sim.Second,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed == 0 {
		t.Fatal("no tenants placed")
	}
	if len(res.PerServer) != 4 {
		t.Fatalf("per-server stats %d", len(res.PerServer))
	}
	// Tenants average ~2 busy cores of 10 allocated; plus empty servers
	// donate almost everything: the fleet must harvest heavily.
	if res.FleetAvgHarvested < 5 {
		t.Fatalf("fleet harvested %v cores/server; idle capacity not recovered",
			res.FleetAvgHarvested)
	}
	if res.ElasticCPUSec <= 0 || res.HarvestedCoreSec <= 0 {
		t.Fatalf("elastic work accounting: %v / %v", res.ElasticCPUSec, res.HarvestedCoreSec)
	}
	if res.TenantLatency.Count == 0 {
		t.Fatal("no tenant latencies recorded")
	}
}

func TestFleetRejectsWhenFull(t *testing.T) {
	// One server and a flood of arrivals: most must be rejected, never
	// placed beyond capacity. A server holds 21 cores, room for exactly
	// two 10-core tenants beside the ElasticVM's minimum.
	cfg := Config{
		Servers:      1,
		ArrivalRate:  3,
		MeanLifetime: 300 * sim.Second, // effectively no departures
		Duration:     10 * sim.Second,
		Warmup:       sim.Second,
		Seed:         5,
		Workloads:    []apps.PrimarySpec{apps.Memcached(40000)},
	}
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cores := f.servers[0].Machine.TotalCores(); cores != 21 {
		t.Fatalf("a server holds %d cores, want 21", cores)
	}
	res, err := f.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed != 2 {
		t.Fatalf("placed %d on a two-slot server", res.Placed)
	}
	if res.Rejected == 0 {
		t.Fatal("overflow arrivals were not rejected")
	}
}

func TestFleetDeparturesFreeCapacity(t *testing.T) {
	// Short lifetimes: departures must happen and capacity recycle.
	res, err := Run(Config{
		Servers:      2,
		ArrivalRate:  1.5,
		MeanLifetime: 4 * sim.Second,
		Duration:     25 * sim.Second,
		Warmup:       2 * sim.Second,
		Seed:         7,
		Workloads:    []apps.PrimarySpec{apps.Memcached(40000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Departed == 0 {
		t.Fatal("no departures")
	}
	hosted := 0
	for _, s := range res.PerServer {
		hosted += s.TenantsHosted
	}
	if hosted != res.Placed {
		t.Fatalf("hosted %d != placed %d", hosted, res.Placed)
	}
	// With recycling, a 2-server fleet (4 slots) must host more tenants
	// than its instantaneous capacity over 25s.
	if res.Placed <= 4 {
		t.Fatalf("placed only %d tenants; capacity did not recycle", res.Placed)
	}
}

func TestFleetProtectsTenantTails(t *testing.T) {
	// The merged tenant latency distribution should look like healthy
	// Memcached (sub-millisecond P99), not a harvesting victim.
	res, err := Run(Config{
		Servers:      2,
		ArrivalRate:  0.5,
		MeanLifetime: 20 * sim.Second,
		Duration:     20 * sim.Second,
		Warmup:       2 * sim.Second,
		Seed:         11,
		Workloads:    []apps.PrimarySpec{apps.Memcached(40000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TenantLatency.P99 > int64(sim.Millisecond) {
		t.Fatalf("fleet tenant P99 %v; harvesting hurt the tenants", sim.Time(res.TenantLatency.P99))
	}
}

func TestFleetDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(Config{
			Servers: 2, ArrivalRate: 1, MeanLifetime: 8 * sim.Second,
			Duration: 8 * sim.Second, Warmup: sim.Second, Seed: 13,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Placed != b.Placed || a.Departed != b.Departed ||
		a.FleetAvgHarvested != b.FleetAvgHarvested {
		t.Fatalf("fleet runs diverged: %+v vs %+v", a, b)
	}
}

// TestFleetValidation: each config differs from a valid one in one field,
// and a zero Duration or MeanLifetime is refused rather than defaulted.
func TestFleetValidation(t *testing.T) {
	ok := Config{Servers: 1, MeanLifetime: sim.Second, Duration: sim.Second}
	if _, err := Run(ok); err != nil {
		t.Fatalf("valid config refused: %v", err)
	}
	for i, mut := range []func(*Config){
		func(c *Config) { c.Servers = 0 },
		func(c *Config) { c.ArrivalRate = -1 },
		func(c *Config) { c.Warmup = -sim.Second },
		func(c *Config) { c.Duration = -sim.Second },
		func(c *Config) { c.Duration = 0 },
		func(c *Config) { c.MeanLifetime = 0 },
		func(c *Config) { c.Warmup, c.Duration = 2*sim.Second, math.MaxInt64-sim.Second },
	} {
		cfg := ok
		mut(&cfg)
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestFleetCustomController(t *testing.T) {
	res, err := Run(Config{
		Servers: 1, ArrivalRate: 0.5, MeanLifetime: 10 * sim.Second,
		Duration: 10 * sim.Second, Warmup: sim.Second, Seed: 2,
		Controller: harness.ControllerFactory(func(alloc int) core.Controller {
			return core.NewFixedBuffer(alloc, 4)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed == 0 {
		t.Fatal("no placements")
	}
}

func TestFleetFirstFitReusesFreedServer(t *testing.T) {
	// Regression: a tenant departure must actually free its server for
	// the next first-fit placement. Two two-slot servers with heavy
	// churn — if freed capacity were not reused, each server could host
	// at most two tenants ever.
	res, err := Run(Config{
		Servers:      2,
		ArrivalRate:  1.5,
		MeanLifetime: 3 * sim.Second,
		Duration:     30 * sim.Second,
		Warmup:       sim.Second,
		Seed:         37,
		Workloads:    []apps.PrimarySpec{apps.Memcached(40000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Departed == 0 {
		t.Fatal("no departures; scenario does not exercise capacity reuse")
	}
	// First-fit prefers server 0, so the freed first server must be
	// reused repeatedly.
	if res.PerServer[0].TenantsHosted <= 2 {
		t.Fatalf("server 0 hosted %d tenants; freed slot never reused",
			res.PerServer[0].TenantsHosted)
	}
	if res.Placed <= 4 {
		t.Fatalf("placed only %d tenants across the run", res.Placed)
	}
}

func TestFleetHarvestSpread(t *testing.T) {
	res, err := Run(Config{
		Servers:      4,
		ArrivalRate:  0.8,
		MeanLifetime: 15 * sim.Second,
		Duration:     20 * sim.Second,
		Warmup:       2 * sim.Second,
		Seed:         3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp := res.Spread
	if sp.Min > sp.Median || sp.Median > sp.P99 || sp.P99 > sp.Max {
		t.Fatalf("spread not ordered: %+v", sp)
	}
	if sp.Max <= 0 {
		t.Fatalf("spread max %v on a harvesting fleet", sp.Max)
	}
	lo, hi := res.PerServer[0].HarvestedCoreSec, res.PerServer[0].HarvestedCoreSec
	for _, s := range res.PerServer {
		if s.HarvestedCoreSec < lo {
			lo = s.HarvestedCoreSec
		}
		if s.HarvestedCoreSec > hi {
			hi = s.HarvestedCoreSec
		}
	}
	if sp.Min != lo || sp.Max != hi {
		t.Fatalf("spread min/max %v/%v, per-server says %v/%v", sp.Min, sp.Max, lo, hi)
	}
}

func TestFleetServerCrashesAndRestarts(t *testing.T) {
	plan, err := faults.ParsePlan("scrash=0.01,srestartdur=300ms")
	if err != nil {
		t.Fatal(err)
	}
	m := obs.NewMetrics()
	res, err := Run(Config{
		Servers: 3, ArrivalRate: 0.5, MeanLifetime: 10 * sim.Second,
		Duration: 20 * sim.Second, Warmup: sim.Second, Seed: 9,
		Faults: plan, Observer: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.ServerCrashes == 0 {
		t.Fatal("scrash=0.01 over 20s crashed nothing")
	}
	if m.ServerRestarts == 0 {
		t.Fatal("no server ever restarted")
	}
	if m.ServerRestarts > m.ServerCrashes {
		t.Fatalf("%d restarts for %d crashes", m.ServerRestarts, m.ServerCrashes)
	}
	if res.FaultsInjected == 0 {
		t.Fatal("fleet faults not counted in Result.FaultsInjected")
	}
}

func TestFleetCrashHandlersSeeDownServer(t *testing.T) {
	plan, err := faults.ParsePlan("scrash=0.01,srestartdur=200ms")
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewFleet(Config{
		Servers: 2, ArrivalRate: 0.5, MeanLifetime: 10 * sim.Second,
		Duration: 15 * sim.Second, Warmup: sim.Second, Seed: 17,
		Faults: plan,
	})
	if err != nil {
		t.Fatal(err)
	}
	crashes, restarts := 0, 0
	f.SetCrashHandlers(func(i int) {
		crashes++
		if !f.Crashed(i) {
			t.Errorf("crash handler for server %d: Crashed() false", i)
		}
		if f.HarvestedCores(i) != 0 || f.ForecastCores(i) != 0 {
			t.Errorf("crashed server %d still reports %d harvested / %d forecast cores",
				i, f.HarvestedCores(i), f.ForecastCores(i))
		}
	}, func(i int) {
		restarts++
		if f.Crashed(i) {
			t.Errorf("restart handler for server %d: still Crashed()", i)
		}
	})
	if _, err := f.Finish(); err != nil {
		t.Fatal(err)
	}
	if crashes == 0 || restarts == 0 {
		t.Fatalf("handlers fired %d crashes / %d restarts", crashes, restarts)
	}
}

func TestFleetControlPlanePlanLeavesServersUntouched(t *testing.T) {
	// A fleet plan with only control-plane faults (nothing for the fleet
	// ticker, nothing for the per-server injectors) constructs the
	// FleetInjector but draws nothing without a scheduler consulting it:
	// the run must match a fault-free run exactly.
	base := Config{
		Servers: 2, ArrivalRate: 1, MeanLifetime: 8 * sim.Second,
		Duration: 10 * sim.Second, Warmup: sim.Second, Seed: 21,
	}
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faults.ParsePlan("gdrop=0.5,rstale=0.5,rloss=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if !plan.FleetEnabled() || plan.AgentEnabled() {
		t.Fatalf("plan classification wrong: %+v", plan)
	}
	withPlan := base
	withPlan.Faults = plan
	faulted, err := Run(withPlan)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Placed != faulted.Placed || clean.Departed != faulted.Departed ||
		clean.FleetAvgHarvested != faulted.FleetAvgHarvested ||
		clean.HarvestedCoreSec != faulted.HarvestedCoreSec {
		t.Fatalf("unconsumed control-plane plan perturbed the run:\n%+v\nvs\n%+v",
			clean, faulted)
	}
	if faulted.FaultsInjected != 0 {
		t.Fatalf("injected %d faults with no consumer", faulted.FaultsInjected)
	}
}

// TestNoHarvestFleetHarvestsExactlyZero runs a full 8-server fleet whose
// agents never harvest: every ElasticVM sits at its minimum throughout, so
// the harvest must read exactly zero, not floating-point residue.
func TestNoHarvestFleetHarvestsExactlyZero(t *testing.T) {
	res, err := Run(Config{
		Servers:             8,
		Mechanism:           hypervisor.IPI,
		ArrivalRate:         20,
		MeanLifetime:        20 * sim.Second,
		Workloads:           []apps.PrimarySpec{apps.Memcached(8000)},
		Duration:            3 * sim.Second,
		Warmup:              2 * sim.Second,
		Seed:                1,
		Controller:          harness.NoHarvestFactory(),
		DisableElasticBully: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed == 0 {
		t.Fatal("no tenants placed")
	}
	if res.HarvestedCoreSec != 0 || res.FleetAvgHarvested != 0 {
		t.Fatalf("NoHarvest fleet harvested %v core-s, %v cores a server; want exactly 0",
			res.HarvestedCoreSec, res.FleetAvgHarvested)
	}
	for i, s := range res.PerServer {
		if s.HarvestedCoreSec != 0 || s.AvgHarvestedCores != 0 || s.AvgElasticCores != harness.ElasticMin {
			t.Fatalf("server %d: harvested %v core-s, %v cores, elastic %v cores",
				i, s.HarvestedCoreSec, s.AvgHarvestedCores, s.AvgElasticCores)
		}
	}
}
