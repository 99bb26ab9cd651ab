// Package cluster simulates a fleet of SmartHarvest servers. The paper's
// agents run entirely independently per server (§3.3); this package wires
// many simulated machines onto one event loop, drives them with a stream
// of tenant VM arrivals and departures placed first-fit across the fleet,
// and aggregates the datacenter-level quantity the paper's introduction
// motivates: how many allocated-but-idle core-hours the ElasticVMs
// recover, at what tail-latency cost.
//
// A fleet can also be driven incrementally through the Fleet type, which
// exposes each server's live harvested capacity and the agent's forecast
// of it — the substrate the fleet job scheduler (internal/sched) places
// batch jobs onto.
package cluster

import (
	"fmt"
	"math"
	"sort"

	"smartharvest/internal/apps"
	"smartharvest/internal/core"
	"smartharvest/internal/faults"
	"smartharvest/internal/harness"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/metrics"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// Config describes the fleet and its tenant stream.
type Config struct {
	// Servers is the fleet size.
	Servers int
	// CoresPerServer is each server's harvesting pool (default 21:
	// capacity for two 10-core tenants plus the ElasticVM minimum,
	// harness.ElasticMin).
	CoresPerServer int
	// Controller builds each server's policy (default SmartHarvest).
	Controller harness.ControllerFactory
	// Mechanism selects the reassignment path.
	Mechanism hypervisor.Mechanism

	// ArrivalRate is tenant VM arrivals per second across the fleet.
	ArrivalRate float64
	// MeanLifetime is the tenants' exponential lifetime mean.
	MeanLifetime sim.Time
	// Workloads are sampled uniformly for each arriving tenant (default:
	// the paper's four primaries at their standard loads).
	Workloads []apps.PrimarySpec

	// DisableElasticBully leaves each server's ElasticVM idle instead of
	// running the CPU bully, so harvested capacity is available to fleet
	// jobs placed through Fleet.AddJobVM (internal/sched).
	DisableElasticBully bool

	// Faults injects deterministic faults into every server (each server
	// gets its own injector stream derived from Seed) and, for the fleet
	// fault kinds, into the fleet itself: server crashes here, and the
	// scheduler↔server control-plane faults through the FleetInjector the
	// scheduler consults. The zero plan injects nothing and draws
	// nothing; a fleet-only plan creates no per-server injectors, so the
	// per-server RNG streams match a fault-free run exactly.
	Faults faults.Plan
	// Observer receives fleet-level events: fault injections and, when
	// the fleet is driven by a scheduler, the job lifecycle events. The
	// per-server agent streams are not forwarded (they would interleave
	// across servers).
	Observer obs.Observer

	// Duration is the measured time; Warmup precedes it.
	Duration sim.Time
	Warmup   sim.Time
	// Seed drives all randomness.
	Seed uint64
}

func (c *Config) applyDefaults() {
	if c.CoresPerServer == 0 {
		c.CoresPerServer = 21
	}
	if c.Controller == nil {
		c.Controller = func(alloc int) core.Controller {
			return core.NewSmartHarvest(alloc, core.SmartHarvestOptions{})
		}
	}
	if len(c.Workloads) == 0 {
		c.Workloads = []apps.PrimarySpec{
			apps.Memcached(40000), apps.IndexServe(500),
			apps.Moses(400), apps.ImgDNN(2000),
		}
	}
	if c.Duration == 0 {
		c.Duration = 30 * sim.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * sim.Second
	}
	if c.MeanLifetime == 0 {
		c.MeanLifetime = 20 * sim.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

func (c *Config) validate() error {
	if c.Servers < 1 {
		return fmt.Errorf("cluster: need at least one server")
	}
	if c.CoresPerServer < harness.DefaultPrimaryVMCores+harness.ElasticMin {
		return fmt.Errorf("cluster: servers too small for one tenant VM")
	}
	if c.ArrivalRate < 0 {
		return fmt.Errorf("cluster: negative arrival rate")
	}
	if c.Duration < 0 || c.Warmup < 0 {
		return fmt.Errorf("cluster: negative Duration %v or Warmup %v", c.Duration, c.Warmup)
	}
	if c.Duration > math.MaxInt64-c.Warmup {
		return fmt.Errorf("cluster: Warmup %v + Duration %v overflows the clock", c.Warmup, c.Duration)
	}
	return nil
}

// ServerStats summarizes one server's run: the tenants it hosted, its
// ElasticVM's harvest (HarvestedCoreSec is harness.Server's
// HarvestedCoreTime over the measured span) and its agent's counters.
type ServerStats struct {
	TenantsHosted int
	harness.Harvest
	HarvestedCoreSec float64
	core.Stats
}

// HarvestSpread is the distribution of per-server harvested core-seconds
// across the fleet (nearest-rank quantiles over the servers).
type HarvestSpread struct {
	Min    float64
	Median float64
	P99    float64
	Max    float64
}

func (s HarvestSpread) String() string {
	return fmt.Sprintf("min %.1f / median %.1f / P99 %.1f / max %.1f",
		s.Min, s.Median, s.P99, s.Max)
}

// Result aggregates a fleet run.
type Result struct {
	Placed, Rejected  int
	Retries           int // always zero: a tenant that finds no room is rejected
	Departed          int
	PerServer         []ServerStats
	FleetAvgHarvested float64 // per-server average of harvested cores
	HarvestedCoreSec  float64 // total elastic core-seconds beyond minimums
	// Spread is the per-server harvested core-seconds distribution.
	Spread        HarvestSpread
	ElasticCPUSec float64 // total elastic CPU actually executed
	// FaultsInjected counts injected faults across the fleet (zero on
	// fault-free runs).
	FaultsInjected uint64
	TenantLatency  metrics.Summary
}

// Fleet is an assembled fleet simulation that has not run yet (or is
// mid-run). A scheduler drives it by scheduling callbacks on Loop before
// calling Finish, querying each server's harvested capacity and placing
// job VMs into the elastic groups as it goes.
type Fleet struct {
	cfg      Config
	loop     *sim.Loop
	servers  []*harness.Server
	maxAlloc int // each server's most primary cores
	res      *Result
	merged   *metrics.Histogram
	runErr   error
	end      sim.Time
	finished bool

	// Fleet-chaos state (nil/empty without fleet fault kinds).
	fleetInj  *faults.FleetInjector
	crashed   []bool
	onCrash   func(server int)
	onRestart func(server int)
}

// NewFleet builds the fleet: servers, agents, the tenant arrival process,
// and the warmup snapshot, all scheduled on a fresh loop. Nothing runs
// until Finish (or the caller steps the loop itself).
func NewFleet(cfg Config) (*Fleet, error) { return newFleet(cfg, nil) }

// newFleet is NewFleet with an observer for the per-server agents and
// machines. The fleet never forwards their streams, so NewFleet passes
// nil; the run-ahead equivalence test passes obs.NopObserver{}, which
// makes every agent fire every poll (the reference run) and changes
// nothing else.
func newFleet(cfg Config, agentObserver obs.Observer) (*Fleet, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := simrng.New(cfg.Seed)
	loop := sim.NewLoop()
	f := &Fleet{
		cfg: cfg, loop: loop, res: &Result{},
		merged:   metrics.NewHistogram(),
		end:      cfg.Warmup + cfg.Duration,
		maxAlloc: cfg.CoresPerServer - harness.ElasticMin,
	}

	f.servers = make([]*harness.Server, cfg.Servers)
	for i := range f.servers {
		agentCfg := core.DefaultConfig(f.maxAlloc, harness.ElasticMin)
		agentCfg.Observer = agentObserver
		// Empty server: one core reserved for the (absent) primaries'
		// floor, everything else harvestable.
		s, err := harness.NewServer(loop, rng, cfg.Mechanism, cfg.Faults, cfg.Observer,
			cfg.Controller(f.maxAlloc), agentCfg, 1)
		if err != nil {
			return nil, err
		}
		if !cfg.DisableElasticBully {
			apps.NewCPUBully(loop, s.Elastic).Start()
		}
		s.Agent.Start()
		f.servers[i] = s
	}

	// Fleet-level fault machinery. The injector's stream is derived from
	// the seed directly — not drawn from the master rng — so enabling
	// fleet faults leaves the tenant and per-server streams untouched,
	// and a zero fleet plan (which constructs nothing here) is
	// byte-identical to a fault-free run.
	if cfg.Faults.FleetEnabled() {
		inj, err := faults.NewFleetInjector(cfg.Faults, simrng.New(cfg.Seed^0xF1EE7C4A05), loop.Now, cfg.Observer)
		if err != nil {
			return nil, err
		}
		f.fleetInj = inj
		f.crashed = make([]bool, cfg.Servers)
		if inj.Plan().ServerCrashProb > 0 {
			// Crash decisions tick at the learning-window cadence, per up
			// server in index order, starting after warmup (the warmup
			// snapshot must be taken on an intact fleet).
			const tick = 25 * sim.Millisecond
			loop.NewTicker(cfg.Warmup+tick, tick, func() {
				for i := range f.servers {
					if f.crashed[i] {
						continue
					}
					if down := f.fleetInj.CrashTick(i); down > 0 {
						f.crashServer(i, down)
					}
				}
			})
		}
	}

	// place puts a tenant on the first server with room; a full fleet
	// rejects it.
	place := func(spec apps.PrimarySpec) {
		var target *harness.Server
		for _, s := range f.servers {
			if (s.Live()+1)*harness.DefaultPrimaryVMCores <= f.maxAlloc {
				target = s
				break
			}
		}
		if target == nil {
			f.res.Rejected++
			return
		}
		p, err := target.AddPrimary(spec, cfg.Warmup)
		if err != nil {
			f.runErr = err
			return
		}
		f.res.Placed++
		if err := target.Agent.SetPrimaryAlloc(target.Live() * harness.DefaultPrimaryVMCores); err != nil {
			f.runErr = err
			return
		}
		// Schedule departure.
		life := sim.Time(rng.Exp(float64(cfg.MeanLifetime)))
		loop.After(life, func() {
			if f.runErr != nil {
				return
			}
			f.merged.Merge(p.Latency())
			target.Machine.RemoveVM(p.VM())
			f.res.Departed++
			// An empty server keeps a one-core primary floor.
			alloc := max(target.Live()*harness.DefaultPrimaryVMCores, 1)
			if err := target.Agent.SetPrimaryAlloc(alloc); err != nil {
				f.runErr = err
			}
		})
	}

	// Tenant arrival process. The workload draw happens at arrival time,
	// before the fit search.
	if cfg.ArrivalRate > 0 {
		var next func()
		next = func() {
			place(cfg.Workloads[rng.Intn(len(cfg.Workloads))])
			loop.After(sim.Time(rng.Exp(1e9/cfg.ArrivalRate)), next)
		}
		loop.After(sim.Time(rng.Exp(1e9/cfg.ArrivalRate)), next)
	}

	loop.At(cfg.Warmup, func() {
		for _, s := range f.servers {
			s.MarkWarm()
		}
	})
	return f, nil
}

// crashServer takes server i's harvesting stack down for down: the
// ServerCrash event fires, the scheduler's crash handler orphans the
// jobs running there, and the agent dies (its watchdog failsafe returns
// the tenants' cores first). Tenant primary VMs ride out the outage —
// the failure domain is the harvesting stack, not the host.
func (f *Fleet) crashServer(i int, down sim.Time) {
	now := f.loop.Now()
	f.crashed[i] = true
	if o := f.cfg.Observer; o != nil {
		o.OnServerCrash(obs.ServerCrash{At: now, Server: i, Down: down})
	}
	if f.onCrash != nil {
		f.onCrash(i)
	}
	f.servers[i].Agent.ForceCrash(down, f.cfg.Faults.LoseModel)
	f.loop.After(down, func() {
		f.crashed[i] = false
		if o := f.cfg.Observer; o != nil {
			o.OnServerRestart(obs.ServerRestart{At: f.loop.Now(), Server: i, Down: f.loop.Now() - now})
		}
		if f.onRestart != nil {
			f.onRestart(i)
		}
	})
}

// SetCrashHandlers registers the scheduler's callbacks for server
// crash/restart, invoked after the fleet's own bookkeeping (the crash
// handler sees Crashed(i) == true and a zero HarvestedCores reading).
func (f *Fleet) SetCrashHandlers(onCrash, onRestart func(server int)) {
	f.onCrash = onCrash
	f.onRestart = onRestart
}

// Crashed reports whether server i's harvesting stack is currently down.
func (f *Fleet) Crashed(i int) bool {
	return f.crashed != nil && f.crashed[i]
}

// FleetInjector returns the fleet-level fault injector, or nil when no
// fleet fault kinds are enabled. The scheduler consults it for
// control-plane faults (grant drops/delays, stale reads, reconcile
// loss).
func (f *Fleet) FleetInjector() *faults.FleetInjector { return f.fleetInj }

// Loop returns the fleet's event loop, for scheduling caller callbacks.
func (f *Fleet) Loop() *sim.Loop { return f.loop }

// Servers returns the fleet size.
func (f *Fleet) Servers() int { return len(f.servers) }

// End returns the run's end time (warmup + duration).
func (f *Fleet) End() sim.Time { return f.end }

// Warmup returns the configured warmup span.
func (f *Fleet) Warmup() sim.Time { return f.cfg.Warmup }

// HarvestedCores returns server i's harvested capacity right now
// (harness.Server.HarvestedCores). A crashed server harvests nothing: its
// agent is dead and its cores are back with the tenants.
func (f *Fleet) HarvestedCores(i int) int {
	if f.Crashed(i) {
		return 0
	}
	return f.servers[i].HarvestedCores()
}

// ForecastCores returns the agent's forecast of server i's harvested
// capacity for the next learning window (harness.Server.ForecastCores),
// zero while the server is crashed.
func (f *Fleet) ForecastCores(i int) int {
	if f.Crashed(i) {
		return 0
	}
	return f.servers[i].ForecastCores()
}

// TotalHarvestedCores sums HarvestedCores across the fleet — the live
// harvest supply the capacity market's pool balances refill from.
// Crashed servers contribute nothing.
func (f *Fleet) TotalHarvestedCores() int {
	total := 0
	for i := range f.servers {
		total += f.HarvestedCores(i)
	}
	return total
}

// TotalForecastCores sums ForecastCores across the fleet — the forecast
// supply the market's pool-admission bound is computed against.
func (f *Fleet) TotalForecastCores() int {
	total := 0
	for i := range f.servers {
		total += f.ForecastCores(i)
	}
	return total
}

// AddJobVM places a batch-job VM with the given vCPU count into server
// i's elastic group, where it shares harvested cores with (and is
// scheduled exactly like) the ElasticVM.
func (f *Fleet) AddJobVM(i int, name string, vcpus int) *hypervisor.VM {
	return f.servers[i].Machine.AddVM(name, hypervisor.ElasticGroup, vcpus, vcpus)
}

// RemoveJobVM removes a job VM placed by AddJobVM: running vCPUs stop
// immediately and queued guest work is discarded.
func (f *Fleet) RemoveJobVM(i int, vm *hypervisor.VM) {
	f.servers[i].Machine.RemoveVM(vm)
}

// Finish runs the simulation to the end time and aggregates the result.
// Calling it again returns the same result. It stops the servers' input
// producers (harness.Server.Close) on the way out.
func (f *Fleet) Finish() (*Result, error) {
	if f.finished {
		return f.res, f.runErr
	}
	f.finished = true
	defer func() {
		for _, s := range f.servers {
			s.Close()
		}
	}()
	f.loop.RunUntil(f.end)
	if f.runErr != nil {
		return nil, f.runErr
	}

	res := f.res
	measured := f.cfg.Duration
	perServer := make([]float64, 0, len(f.servers))
	var harvested sim.Time
	for _, s := range f.servers {
		h := s.Harvest(measured)
		ht := s.HarvestedCoreTime(measured)
		st := ServerStats{
			TenantsHosted:    len(s.Primaries),
			Harvest:          h,
			HarvestedCoreSec: ht.Seconds(),
			Stats:            s.Agent.Stats(),
		}
		res.PerServer = append(res.PerServer, st)
		harvested += ht
		res.ElasticCPUSec += h.ElasticCPUSeconds
		res.FleetAvgHarvested += h.AvgHarvestedCores
		perServer = append(perServer, st.HarvestedCoreSec)
		if s.Faults != nil {
			res.FaultsInjected += s.Faults.Total()
		}
		// Latencies of tenants still resident at the end.
		for _, p := range s.Primaries {
			if !p.VM().Removed() {
				f.merged.Merge(p.Latency())
			}
		}
	}
	res.HarvestedCoreSec = harvested.Seconds()
	res.FleetAvgHarvested /= float64(len(f.servers))
	res.Spread = spreadOf(perServer)
	if f.fleetInj != nil {
		res.FaultsInjected += f.fleetInj.Total()
	}
	res.TenantLatency = f.merged.Summarize()
	return res, nil
}

// spreadOf computes nearest-rank quantiles over per-server values
// (mirroring metrics.ExactQuantile's convention).
func spreadOf(xs []float64) HarvestSpread {
	if len(xs) == 0 {
		return HarvestSpread{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := func(q float64) float64 {
		r := int(math.Ceil(q * float64(len(s))))
		if r < 1 {
			r = 1
		}
		return s[r-1]
	}
	return HarvestSpread{
		Min:    s[0],
		Median: rank(0.5),
		P99:    rank(0.99),
		Max:    s[len(s)-1],
	}
}

// Run executes the fleet simulation start to finish.
func Run(cfg Config) (*Result, error) {
	f, err := NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	return f.Finish()
}
