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
	"smartharvest/internal/workload"
)

// Config describes the fleet and its tenant stream.
type Config struct {
	// Servers is the fleet size.
	Servers int
	// CoresPerServer is each server's harvesting pool (default 21:
	// capacity for two 10-core tenants plus the ElasticVM minimum).
	CoresPerServer int
	// ElasticMin is the per-server ElasticVM minimum (default 1).
	ElasticMin int
	// VMCores is the allocation of each tenant VM (default 10).
	VMCores int
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

	// RejectRetries, when positive, gives each rejected tenant arrival up
	// to that many retry attempts, each after RejectRetryDelay, before it
	// is finally counted as Rejected. Zero (the default) drops rejected
	// arrivals immediately — runs are byte-identical to builds that never
	// heard of retries, since no extra randomness is drawn either way.
	RejectRetries int
	// RejectRetryDelay is the wait before each retry attempt (default
	// 500 ms when RejectRetries is positive).
	RejectRetryDelay sim.Time

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
	if c.ElasticMin == 0 {
		c.ElasticMin = 1
	}
	if c.VMCores == 0 {
		c.VMCores = 10
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
	if c.RejectRetries > 0 && c.RejectRetryDelay == 0 {
		c.RejectRetryDelay = 500 * sim.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

func (c *Config) validate() error {
	if c.Servers < 1 {
		return fmt.Errorf("cluster: need at least one server")
	}
	if c.CoresPerServer < c.VMCores+c.ElasticMin {
		return fmt.Errorf("cluster: servers too small for one tenant VM")
	}
	if c.ArrivalRate < 0 {
		return fmt.Errorf("cluster: negative arrival rate")
	}
	if c.RejectRetries < 0 || c.RejectRetryDelay < 0 {
		return fmt.Errorf("cluster: negative RejectRetries or RejectRetryDelay")
	}
	return nil
}

// server is one fleet member.
type server struct {
	machine *hypervisor.Machine
	agent   *core.Agent
	evm     *hypervisor.VM
	tenants map[*tenant]struct{}

	maxAlloc           int
	warmCoreSec        float64 // elastic core-seconds at warmup
	warmCPUSec         float64
	tenantsHostedTotal int
}

func (s *server) allocUsed(vmCores int) int { return len(s.tenants) * vmCores }

// tenant is one placed primary VM.
type tenant struct {
	vm     *hypervisor.VM
	server *server
	srv    *workload.Server
	spec   apps.PrimarySpec
}

// ServerStats summarizes one server's run.
type ServerStats struct {
	TenantsHosted     int
	AvgHarvestedCores float64
	HarvestedCoreSec  float64
	ElasticCPUSeconds float64
	Safeguards        uint64
	QoSTrips          uint64
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
	Retries           int // rejected-arrival retry attempts performed
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
	cfg       Config
	loop      *sim.Loop
	servers   []*server
	injectors []*faults.Injector
	res       *Result
	merged    *metrics.Histogram
	runErr    error
	end       sim.Time
	finished  bool

	// Fleet-chaos state (nil/empty without fleet fault kinds).
	fleetInj  *faults.FleetInjector
	crashed   []bool
	crashAt   []sim.Time
	onCrash   func(server int)
	onRestart func(server int)
}

// NewFleet builds the fleet: servers, agents, the tenant arrival process,
// and the warmup snapshot, all scheduled on a fresh loop. Nothing runs
// until Finish (or the caller steps the loop itself).
func NewFleet(cfg Config) (*Fleet, error) { return newFleet(cfg, nil) }

// newFleet is NewFleet with an observer for the per-server agents. The
// fleet never forwards their streams, so NewFleet passes nil; the
// run-ahead equivalence test passes obs.NopObserver{}, which makes every
// agent fire every poll (the reference run) and changes nothing else.
func newFleet(cfg Config, agentObserver obs.Observer) (*Fleet, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := simrng.New(cfg.Seed)
	loop := sim.NewLoop()
	f := &Fleet{
		cfg: cfg, loop: loop, res: &Result{},
		merged: metrics.NewHistogram(),
		end:    cfg.Warmup + cfg.Duration,
	}

	maxAlloc := cfg.CoresPerServer - cfg.ElasticMin
	f.servers = make([]*server, cfg.Servers)
	for i := range f.servers {
		hvCfg := hypervisor.DefaultConfig(cfg.CoresPerServer)
		hvCfg.Mechanism = cfg.Mechanism
		hvCfg.Seed = rng.Uint64()
		// The injector (and its RNG draw) exists only when the plan
		// injects agent-level faults, keeping fault-free runs — and
		// fleet-only fault runs — byte-identical on the per-server streams
		// to builds that never heard of fault injection.
		var inj *faults.Injector
		if cfg.Faults.AgentEnabled() {
			var err error
			inj, err = faults.NewInjector(cfg.Faults, simrng.New(rng.Uint64()), loop.Now, cfg.Observer)
			if err != nil {
				return nil, err
			}
			hvCfg.Faults = inj
			f.injectors = append(f.injectors, inj)
		}
		machine, err := hypervisor.New(loop, hvCfg)
		if err != nil {
			return nil, err
		}
		// Empty server: one core reserved for the (absent) primaries'
		// floor, everything else harvestable.
		machine.SetInitialSplit(1)
		evm := machine.AddVM("elastic", hypervisor.ElasticGroup, cfg.CoresPerServer, cfg.CoresPerServer)
		if !cfg.DisableElasticBully {
			apps.NewCPUBully(loop, evm).Start()
		}

		agentCfg := core.DefaultConfig(maxAlloc, cfg.ElasticMin)
		if cfg.Mechanism == hypervisor.IPI {
			agentCfg.PostResizeSleep = 0
		}
		ctrl := cfg.Controller(maxAlloc)
		agentCfg.LongTermSafeguard = ctrl.Safeguards()
		agentCfg.Observer = agentObserver
		if inj != nil {
			agentCfg.Faults = inj
		}
		agent, err := core.NewAgent(loop, harness.MachineHypervisor(machine, inj), ctrl, agentCfg)
		if err != nil {
			return nil, err
		}
		if err := agent.SetPrimaryAlloc(1); err != nil {
			return nil, err
		}
		agent.Start()
		f.servers[i] = &server{
			machine: machine, agent: agent, evm: evm,
			tenants: map[*tenant]struct{}{}, maxAlloc: maxAlloc,
		}
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
		f.crashAt = make([]sim.Time, cfg.Servers)
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
	// retries after a delay (when configured) before finally rejecting.
	var place func(spec apps.PrimarySpec, retriesLeft int)
	place = func(spec apps.PrimarySpec, retriesLeft int) {
		var target *server
		for _, s := range f.servers {
			if s.allocUsed(cfg.VMCores)+cfg.VMCores <= s.maxAlloc {
				target = s
				break
			}
		}
		if target == nil {
			if retriesLeft > 0 {
				f.res.Retries++
				loop.After(cfg.RejectRetryDelay, func() {
					if f.runErr == nil {
						place(spec, retriesLeft-1)
					}
				})
			} else {
				f.res.Rejected++
			}
			return
		}
		vm := target.machine.AddVM(spec.Name, hypervisor.PrimaryGroup, cfg.VMCores, cfg.VMCores)
		srv, err := spec.Build(loop, vm, rng.Split(), cfg.Warmup)
		if err != nil {
			f.runErr = err
			return
		}
		srv.Start()
		tn := &tenant{vm: vm, server: target, srv: srv, spec: spec}
		target.tenants[tn] = struct{}{}
		target.tenantsHostedTotal++
		f.res.Placed++
		if err := target.agent.SetPrimaryAlloc(target.allocUsed(cfg.VMCores)); err != nil {
			f.runErr = err
			return
		}
		// Schedule departure.
		life := sim.Time(rng.Exp(float64(cfg.MeanLifetime)))
		loop.After(life, func() {
			if f.runErr != nil {
				return
			}
			f.merged.Merge(tn.srv.Latency())
			tn.server.machine.RemoveVM(tn.vm)
			delete(tn.server.tenants, tn)
			f.res.Departed++
			alloc := tn.server.allocUsed(cfg.VMCores)
			if alloc < 1 {
				alloc = 1 // empty-server floor
			}
			if err := tn.server.agent.SetPrimaryAlloc(alloc); err != nil {
				f.runErr = err
			}
		})
	}

	// Tenant arrival process. The workload draw happens at arrival time
	// (before the fit search), so the RNG stream is identical whether or
	// not retries are enabled.
	if cfg.ArrivalRate > 0 {
		var next func()
		next = func() {
			place(cfg.Workloads[rng.Intn(len(cfg.Workloads))], cfg.RejectRetries)
			loop.After(sim.Time(rng.Exp(1e9/cfg.ArrivalRate)), next)
		}
		loop.After(sim.Time(rng.Exp(1e9/cfg.ArrivalRate)), next)
	}

	loop.At(cfg.Warmup, func() {
		for _, s := range f.servers {
			s.warmCoreSec = s.machine.CoreSeconds(hypervisor.ElasticGroup)
			s.warmCPUSec = s.evm.CPUTime().Seconds()
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
	f.crashAt[i] = now
	if o := f.cfg.Observer; o != nil {
		o.OnServerCrash(obs.ServerCrash{At: now, Server: i, Down: down})
	}
	if f.onCrash != nil {
		f.onCrash(i)
	}
	f.servers[i].agent.ForceCrash(down, f.cfg.Faults.LoseModel)
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

// HarvestedCores returns server i's harvested capacity right now: the
// elastic group's physical cores beyond the ElasticVM's guaranteed
// minimum. This is what a fleet scheduler may grant to jobs.
// A crashed server harvests nothing: its agent is dead and its cores
// are back with the tenants.
func (f *Fleet) HarvestedCores(i int) int {
	if f.Crashed(i) {
		return 0
	}
	n := f.servers[i].machine.GroupCores(hypervisor.ElasticGroup) - f.cfg.ElasticMin
	if n < 0 {
		n = 0
	}
	return n
}

// ForecastCores returns server i's predicted harvested capacity for the
// next learning window: the agent's live in-force primary-core target
// subtracted from the harvestable pool. This is the learner's own
// forecast — when the safeguards pin the target to the full allocation,
// the forecast collapses to zero, which is exactly the signal a
// prediction-aware placement policy wants.
func (f *Fleet) ForecastCores(i int) int {
	if f.Crashed(i) {
		return 0
	}
	s := f.servers[i]
	n := s.maxAlloc - s.agent.Target()
	if n < 0 {
		n = 0
	}
	return n
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
	return f.servers[i].machine.AddVM(name, hypervisor.ElasticGroup, vcpus, vcpus)
}

// RemoveJobVM removes a job VM placed by AddJobVM: running vCPUs stop
// immediately and queued guest work is discarded.
func (f *Fleet) RemoveJobVM(i int, vm *hypervisor.VM) {
	f.servers[i].machine.RemoveVM(vm)
}

// Finish runs the simulation to the end time and aggregates the result.
// Calling it again returns the same result.
func (f *Fleet) Finish() (*Result, error) {
	if f.finished {
		return f.res, f.runErr
	}
	f.finished = true
	f.loop.RunUntil(f.end)
	if f.runErr != nil {
		return nil, f.runErr
	}

	res := f.res
	measured := f.cfg.Duration.Seconds()
	perServer := make([]float64, 0, len(f.servers))
	for _, s := range f.servers {
		harvestedSec := s.machine.CoreSeconds(hypervisor.ElasticGroup) - s.warmCoreSec -
			float64(f.cfg.ElasticMin)*measured
		if harvestedSec < 0 {
			harvestedSec = 0
		}
		cpuSec := s.evm.CPUTime().Seconds() - s.warmCPUSec
		res.PerServer = append(res.PerServer, ServerStats{
			TenantsHosted:     s.tenantsHostedTotal,
			AvgHarvestedCores: harvestedSec / measured,
			HarvestedCoreSec:  harvestedSec,
			ElasticCPUSeconds: cpuSec,
			Safeguards:        s.agent.SafeguardInvocations(),
			QoSTrips:          s.agent.QoSTrips(),
		})
		res.HarvestedCoreSec += harvestedSec
		res.ElasticCPUSec += cpuSec
		res.FleetAvgHarvested += harvestedSec / measured
		perServer = append(perServer, harvestedSec)
	}
	res.FleetAvgHarvested /= float64(len(f.servers))
	res.Spread = spreadOf(perServer)
	for _, inj := range f.injectors {
		res.FaultsInjected += inj.Total()
	}
	if f.fleetInj != nil {
		res.FaultsInjected += f.fleetInj.Total()
	}
	// Latencies of tenants still resident at the end.
	for _, s := range f.servers {
		for tn := range s.tenants {
			f.merged.Merge(tn.srv.Latency())
		}
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
