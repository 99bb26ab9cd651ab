// Package sched is a harvest-aware fleet job scheduler: it places
// finite, optionally deadline-bearing batch jobs onto the volatile
// harvested capacity a cluster.Fleet exposes. The paper harvests idle
// cores into a bully that merely soaks them up; follow-on systems (Freyr,
// prediction-informed online placement) show the payoff is serving real
// work from that capacity. This package reproduces that next step on the
// simulator: jobs arrive in a Poisson stream, a pluggable placement
// policy picks a server, and when a server's harvest collapses under its
// commitments — tenants arrive, safeguards fire — running jobs are
// preempted and requeued with their checkpointed progress intact, with a
// bounded requeue budget.
//
// Three placement policies are provided: FirstFit takes the first server
// with a free harvested core; BestFit takes the server with the most
// free harvested cores right now; Predicted ranks servers by each
// agent's live learner forecast of next-window free cores (the in-force
// primary-core target subtracted from the harvestable pool) and refuses
// servers whose forecast says the capacity is about to vanish. None of
// the policies see the future — Predicted consumes exactly the signal
// the paper's learner already produces.
//
// The scheduler self-heals under fleet-level chaos (internal/faults
// fleet plans): dropped placement grants are retried with bounded
// exponential backoff, servers whose grants keep failing — or that crash
// outright — are quarantined with doubling windows and re-admitted
// through probation, jobs orphaned by a crash are evicted at the crash
// instant (budget-charged, progress-conserving) and re-placed across the
// survivors, and a sliding window over fault signals degrades admission
// to conservative first-fit until the storm subsides. All of it is inert
// on fault-free runs: no extra events, no extra randomness, byte-for-byte
// identical traces.
//
// When Config.Market opens capacity pools (internal/market), every job
// is assigned a pool and admitted only while that pool's balance holds
// core-time: balances refill from the live fleet harvest each reconcile
// tick and drain as running members consume their grants. Harvest
// collapses then evict in ascending SLA-tier order — spot members
// absorb the preemptions before standard, premium last — with the
// ledger charging eviction budgets and SLA penalties. A zero Market
// config constructs no ledger, draws no randomness, and emits no
// events, so no-pool runs stay byte-identical too.
package sched

import (
	"fmt"
	"sort"

	"smartharvest/internal/apps"
	"smartharvest/internal/check"
	"smartharvest/internal/cluster"
	"smartharvest/internal/faults"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/market"
	"smartharvest/internal/metrics"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// Policy selects how jobs are placed onto servers.
type Policy int

const (
	// FirstFit places on the lowest-indexed server with free harvested
	// capacity.
	FirstFit Policy = iota
	// BestFit places on the server with the most free harvested capacity
	// at placement time.
	BestFit
	// Predicted places on the server whose live learner forecast promises
	// the most free capacity next window, and only if that forecast is
	// positive — capacity the learner expects to vanish is not used.
	Predicted
)

var policyNames = [...]string{"first-fit", "best-fit", "predicted"}

func (p Policy) String() string {
	if int(p) >= 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return "unknown"
}

// ParsePolicy parses a Policy from its String form.
func ParsePolicy(s string) (Policy, error) {
	for i, name := range policyNames {
		if s == name {
			return Policy(i), nil
		}
	}
	return 0, fmt.Errorf("sched: unknown policy %q (want first-fit, best-fit, or predicted)", s)
}

// JobSpec describes one class of batch job.
type JobSpec struct {
	// Work is the job's total CPU demand in core-time.
	Work sim.Time
	// Width is the job's maximum useful parallelism in cores.
	Width int
	// Deadline is the job's SLO, relative to submission; zero means none.
	Deadline sim.Time
}

// Config describes one scheduler run.
type Config struct {
	// Fleet configures the underlying cluster simulation. The ElasticVM
	// bully is disabled regardless of the flag — harvested capacity goes
	// to jobs. Fleet.Observer receives the job lifecycle events too.
	Fleet cluster.Config
	// Policy selects the placement policy.
	Policy Policy
	// ArrivalRate is job arrivals per second across the fleet (default 1).
	// Arrivals start after the fleet's warmup.
	ArrivalRate float64
	// Jobs are sampled uniformly for each arrival (default: a small,
	// medium-deadline, and large-no-deadline mix).
	Jobs []JobSpec
	// MaxRequeues is the per-job requeue budget: an eviction beyond it
	// abandons the job (default 3).
	MaxRequeues int
	// ReconcileEvery is the eviction/placement reconciliation period
	// (default 25 ms, one learning window).
	ReconcileEvery sim.Time
	// Checker, when set, verifies the job event stream online; Bind is
	// called automatically and the report lands in Result.Check.
	Checker *check.JobChecker
	// Market opens capacity pools over the harvested fleet
	// (internal/market): jobs are assigned a pool and placed only while
	// its balance holds core-time, and harvest collapses evict in
	// ascending SLA-tier order. The zero value is fully inert — no
	// ledger, no extra randomness, no extra events.
	Market market.Config

	// Resilience knobs. They engage only when Fleet.Faults enables fleet
	// faults (server crashes or control-plane faults); without those the
	// scheduler never observes a failure and the knobs are inert, so
	// fault-free runs stay byte-identical to builds without them.

	// MaxPlacementRetries bounds how often one placement operation is
	// retried after its grant is dropped, before the job returns to the
	// queue (default 3).
	MaxPlacementRetries int
	// PlacementBackoff is the base retry delay; attempt k waits
	// PlacementBackoff << (k-1) (default 5 ms).
	PlacementBackoff sim.Time
	// QuarantineAfter is the consecutive dropped-grant streak that
	// quarantines a server (default 3).
	QuarantineAfter int
	// QuarantineDur is the base quarantine window; each re-entry doubles
	// it, capped at QuarantineMax (defaults 250 ms and 2 s).
	QuarantineDur sim.Time
	QuarantineMax sim.Time
	// ProbationDur is how long a server leaving quarantine is on
	// probation: usable, but one more failure re-quarantines it with a
	// doubled window, while surviving it clears its record (default 500 ms).
	ProbationDur sim.Time
	// DegradeWindow, DegradeEnter, DegradeExit govern graceful admission
	// degradation: when more than DegradeEnter fault signals (dropped
	// grants, crashes, lost reconciles) land within a sliding
	// DegradeWindow, admission degrades — placements fall back to
	// conservative first-fit, at most one per round — until the windowed
	// count subsides to DegradeExit (defaults 250 ms, 8, 2).
	DegradeWindow sim.Time
	DegradeEnter  int
	DegradeExit   int
}

func (c *Config) applyDefaults() {
	c.Fleet.DisableElasticBully = true
	if c.ArrivalRate == 0 {
		c.ArrivalRate = 1
	}
	if len(c.Jobs) == 0 {
		c.Jobs = []JobSpec{
			{Work: 4 * sim.Second, Width: 4, Deadline: 10 * sim.Second},
			{Work: 8 * sim.Second, Width: 8, Deadline: 25 * sim.Second},
			{Work: 16 * sim.Second, Width: 8},
		}
	}
	if c.MaxRequeues == 0 {
		c.MaxRequeues = 3
	}
	if c.ReconcileEvery == 0 {
		c.ReconcileEvery = 25 * sim.Millisecond
	}
	if c.MaxPlacementRetries == 0 {
		c.MaxPlacementRetries = 3
	}
	if c.PlacementBackoff == 0 {
		c.PlacementBackoff = 5 * sim.Millisecond
	}
	if c.QuarantineAfter == 0 {
		c.QuarantineAfter = 3
	}
	if c.QuarantineDur == 0 {
		c.QuarantineDur = 250 * sim.Millisecond
	}
	if c.QuarantineMax == 0 {
		c.QuarantineMax = 2 * sim.Second
	}
	if c.ProbationDur == 0 {
		c.ProbationDur = 500 * sim.Millisecond
	}
	if c.DegradeWindow == 0 {
		c.DegradeWindow = 250 * sim.Millisecond
	}
	if c.DegradeEnter == 0 {
		c.DegradeEnter = 8
	}
	if c.DegradeExit == 0 {
		c.DegradeExit = 2
	}
}

func (c *Config) validate() error {
	if c.Policy < FirstFit || c.Policy > Predicted {
		return fmt.Errorf("sched: unknown policy %d", int(c.Policy))
	}
	if c.ArrivalRate < 0 || c.MaxRequeues < 0 || c.ReconcileEvery < 0 {
		return fmt.Errorf("sched: negative ArrivalRate, MaxRequeues, or ReconcileEvery")
	}
	if c.MaxPlacementRetries < 0 || c.PlacementBackoff < 0 || c.QuarantineAfter < 0 ||
		c.QuarantineDur < 0 || c.QuarantineMax < 0 || c.ProbationDur < 0 ||
		c.DegradeWindow < 0 || c.DegradeEnter < 0 || c.DegradeExit < 0 {
		return fmt.Errorf("sched: negative resilience knob")
	}
	if c.DegradeExit >= c.DegradeEnter {
		return fmt.Errorf("sched: DegradeExit %d must be below DegradeEnter %d (hysteresis)",
			c.DegradeExit, c.DegradeEnter)
	}
	for i, j := range c.Jobs {
		if j.Work <= 0 || j.Width < 1 || j.Deadline < 0 {
			return fmt.Errorf("sched: job spec %d malformed (work %v, width %d, deadline %v)",
				i, j.Work, j.Width, j.Deadline)
		}
	}
	return nil
}

// Result is one scheduler run's job-level outcome.
type Result struct {
	Policy    Policy
	Submitted int
	Completed int
	// Abandoned jobs exhausted their requeue budget.
	Abandoned int
	// Unfinished jobs were still queued or running at the end of the run.
	Unfinished int
	Evictions  int
	Requeues   int

	// Crashes counts server crashes observed; Orphaned counts evictions
	// forced by them (a subset of Evictions, budget-charged like any
	// other).
	Crashes  int
	Orphaned int
	// PlacementRetries counts grant-drop retries; Quarantines counts
	// quarantine entries; Degraded counts degraded-admission entries.
	PlacementRetries int
	Quarantines      int
	Degraded         int

	// CompletionP50/P99 are exact quantiles of completed jobs' elapsed
	// times (submit to finish).
	CompletionP50 sim.Time
	CompletionP99 sim.Time
	// GoodputCoreSec is the core-seconds of completed work — only jobs
	// that finished count, evicted-and-lost work never does.
	GoodputCoreSec float64
	// SLOJobs counts deadline-bearing jobs whose outcome is known by the
	// end of the run (completed, or deadline already past); SLOMet counts
	// those that completed in time.
	SLOJobs int
	SLOMet  int

	// Fleet is the underlying cluster run's result.
	Fleet *cluster.Result
	// Check is the job-invariant verification report (nil when no
	// Checker was attached).
	Check *check.Report
	// Market is the capacity-market settlement (nil when Config.Market
	// opened no pools).
	Market *market.Result
}

// SLOAttainment returns the fraction of decided SLO jobs that met their
// deadline, or 1 when the run had none.
func (r *Result) SLOAttainment() float64 {
	if r.SLOJobs == 0 {
		return 1
	}
	return float64(r.SLOMet) / float64(r.SLOJobs)
}

// jobState is a job's scheduler-side lifecycle phase.
type jobState int

const (
	statePending jobState = iota
	stateRunning
	stateDone
	stateAbandoned
)

// job is one submitted batch job.
type job struct {
	name     string
	spec     JobSpec
	deadline sim.Time // absolute; zero = none
	submitAt sim.Time

	state     jobState
	progress  sim.Time // checkpointed completed work
	evictions int

	server int
	grant  int
	vm     *hypervisor.VM
	app    *apps.FiniteWork
	pool   *market.Pool // nil until assigned (and always, without a market)

	doneAt    sim.Time
	sloMissed bool
}

func (j *job) remaining() sim.Time { return j.spec.Work - j.progress }

// scheduler drives one run.
type scheduler struct {
	cfg   Config
	fleet *cluster.Fleet
	loop  *sim.Loop
	obs   obs.Observer

	pending   []*job
	running   [][]*job // per server, placement order
	committed []int    // per server, cores granted to running jobs
	all       []*job

	// ledger is the capacity-market runtime, nil unless Config.Market
	// opened pools — the nil path is byte-identical to pre-market runs.
	ledger *market.Ledger

	// Resilience state, allocated only when the fleet has a fault
	// injector; nil slices keep the fault-free path byte-identical.
	fleetInj    *faults.FleetInjector
	health      []serverHealth
	lastHarvest []int // telemetry cache backing stale reads
	faultTimes  []sim.Time
	degraded    bool

	res *Result
}

// serverHealth is the scheduler's view of one server.
type serverHealth struct {
	failStreak  int // consecutive dropped grants
	quarStreak  int // quarantine re-entries (doubles the window)
	quarantined bool
	quarUntil   sim.Time
	probUntil   sim.Time
}

// BenchConfig is the pinned small-fleet configuration behind the
// benchmark's sched.benchconfig_ms probe (benchmark/) and
// BenchmarkPlacement in this package's tests: a churny two-server fleet
// whose reconcile loop exercises placement, eviction, and requeue within
// one simulated second. Changing it invalidates comparisons of that
// metric across commits, so treat the constants as frozen.
func BenchConfig(seed uint64) Config {
	return Config{
		Fleet: cluster.Config{
			Servers:      2,
			ArrivalRate:  2.5,
			MeanLifetime: 2 * sim.Second,
			Duration:     sim.Second,
			Warmup:       250 * sim.Millisecond,
			Seed:         seed,
		},
		Policy:      Predicted,
		ArrivalRate: 4,
	}
}

// Run executes one scheduler simulation. Everything is deterministic
// from the fleet seed: job arrivals draw from their own RNG stream, so
// the tenant process is byte-identical to a plain cluster run with the
// same configuration.
func Run(cfg Config) (*Result, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Checker != nil {
		cfg.Fleet.Observer = obs.Multi(cfg.Fleet.Observer, cfg.Checker)
	}
	fleet, err := cluster.NewFleet(cfg.Fleet)
	if err != nil {
		return nil, err
	}
	if cfg.Checker != nil {
		if err := cfg.Checker.Bind(check.JobConfig{
			MaxRequeues:         cfg.MaxRequeues,
			Servers:             fleet.Servers(),
			MaxPlacementRetries: cfg.MaxPlacementRetries,
			PlacementBackoff:    cfg.PlacementBackoff,
			QuarantineDur:       cfg.QuarantineDur,
			QuarantineMax:       cfg.QuarantineMax,
			ProbationDur:        cfg.ProbationDur,
			DegradeEnter:        cfg.DegradeEnter,
			DegradeExit:         cfg.DegradeExit,
			Market:              cfg.Market,
		}); err != nil {
			return nil, err
		}
	}

	s := &scheduler{
		cfg: cfg, fleet: fleet, loop: fleet.Loop(), obs: cfg.Fleet.Observer,
		running:   make([][]*job, fleet.Servers()),
		committed: make([]int, fleet.Servers()),
		res:       &Result{Policy: cfg.Policy},
	}
	if inj := fleet.FleetInjector(); inj != nil {
		s.fleetInj = inj
		s.health = make([]serverHealth, fleet.Servers())
		s.lastHarvest = make([]int, fleet.Servers())
		fleet.SetCrashHandlers(s.onCrash, s.onRestart)
	}

	// Job arrivals on their own RNG stream (never touching the fleet's),
	// starting after warmup.
	seed := cfg.Fleet.Seed
	if seed == 0 {
		seed = 1
	}
	jrng := simrng.New(seed + 0x9E3779B97F4A7C15)

	// Capacity market: pool-open requests land at or after warmup (spec
	// order breaks ties), before the same instant's reconcile tick, so
	// admitted pools see their first refill immediately. The ledger's
	// RNG stream is derived from the seed alone — enabling pools shifts
	// no tenant, job, or fault schedule.
	if cfg.Market.Enabled() {
		lg, err := market.NewLedger(cfg.Market, seed, s.loop.Now, cfg.Fleet.Observer)
		if err != nil {
			return nil, err
		}
		s.ledger = lg
		for i, spec := range lg.Specs() {
			at := spec.At
			if at < fleet.Warmup() {
				at = fleet.Warmup()
			}
			i := i
			s.loop.At(at, func() {
				s.ledger.TryOpen(i, s.fleet.TotalForecastCores())
				s.tryPlace()
			})
		}
	}

	if cfg.ArrivalRate > 0 {
		var next func()
		next = func() {
			s.submit(cfg.Jobs[jrng.Intn(len(cfg.Jobs))])
			s.loop.After(sim.Time(jrng.Exp(1e9/cfg.ArrivalRate)), next)
		}
		s.loop.At(fleet.Warmup()+sim.Time(jrng.Exp(1e9/cfg.ArrivalRate)), next)
	}

	// Reconciliation: evict overcommitted servers, then place what fits.
	s.loop.NewTicker(fleet.Warmup(), cfg.ReconcileEvery, s.reconcile)

	fleetRes, err := fleet.Finish()
	if err != nil {
		return nil, err
	}
	s.res.Fleet = fleetRes
	s.finalize()
	if cfg.Checker != nil {
		s.res.Check = cfg.Checker.Finish()
	}
	return s.res, nil
}

func (s *scheduler) submit(spec JobSpec) {
	now := s.loop.Now()
	j := &job{
		name: fmt.Sprintf("job-%d", len(s.all)), spec: spec,
		submitAt: now, server: -1,
	}
	if spec.Deadline > 0 {
		j.deadline = now + spec.Deadline
	}
	s.all = append(s.all, j)
	s.res.Submitted++
	if s.obs != nil {
		s.obs.OnJobSubmit(obs.JobSubmit{
			At: now, Job: j.name, Work: spec.Work, Width: spec.Width,
			Deadline: j.deadline,
		})
	}
	s.pending = append(s.pending, j)
	s.tryPlace()
}

// free returns server i's uncommitted harvested cores right now.
func (s *scheduler) free(i int) int {
	return s.fleet.HarvestedCores(i) - s.committed[i]
}

// avoid reports whether server i is off-limits for placement: inside an
// active quarantine window. (Crashed servers need no guard — they report
// zero harvested and forecast cores, so no policy selects them.)
func (s *scheduler) avoid(i int) bool {
	if s.health == nil {
		return false
	}
	h := &s.health[i]
	return h.quarantined && s.loop.Now() < h.quarUntil
}

// pick selects a server for the next job per the policy, or -1. While
// admission is degraded the policy falls back to conservative first-fit.
func (s *scheduler) pick() int {
	n := s.fleet.Servers()
	policy := s.cfg.Policy
	if s.degraded {
		policy = FirstFit
	}
	switch policy {
	case FirstFit:
		for i := 0; i < n; i++ {
			if !s.avoid(i) && s.free(i) >= 1 {
				return i
			}
		}
	case BestFit:
		best, bestFree := -1, 0
		for i := 0; i < n; i++ {
			if s.avoid(i) {
				continue
			}
			if f := s.free(i); f > bestFree {
				best, bestFree = i, f
			}
		}
		return best
	case Predicted:
		// Rank by the learner's forecast of free capacity next window;
		// admission still requires a free core right now (the forecast
		// chooses among servers, it cannot conjure cores).
		best, bestFc := -1, 0
		for i := 0; i < n; i++ {
			if s.avoid(i) {
				continue
			}
			fc := s.fleet.ForecastCores(i) - s.committed[i]
			if fc >= 1 && s.free(i) >= 1 && fc > bestFc {
				best, bestFc = i, fc
			}
		}
		return best
	}
	return -1
}

// admissible reports whether j may be placed right now. Without a
// market it always is; with one, the job needs a pool (assigned on
// first demand — the weighted draw happens only once pools are open,
// so pre-market arrival order never shifts the stream) whose balance
// still holds core-time.
func (s *scheduler) admissible(j *job) bool {
	if s.ledger == nil {
		return true
	}
	if j.pool == nil {
		j.pool = s.ledger.AssignPool()
	}
	return j.pool != nil && j.pool.Balance > 0
}

// nextPlaceable returns the queue index of the first pending job whose
// pool can admit it (the head, without a market), or -1. Jobs of
// exhausted pools wait in line without blocking funded ones.
func (s *scheduler) nextPlaceable() int {
	if s.ledger == nil {
		if len(s.pending) == 0 {
			return -1
		}
		return 0
	}
	for qi, j := range s.pending {
		if s.admissible(j) {
			return qi
		}
	}
	return -1
}

// tryPlace starts pending jobs while the policy finds room (FIFO among
// admissible jobs). Degraded admission throttles to one placement per
// round.
func (s *scheduler) tryPlace() {
	placed := 0
	for {
		if s.degraded && placed >= 1 {
			return
		}
		qi := s.nextPlaceable()
		if qi < 0 {
			return
		}
		target := s.pick()
		if target < 0 {
			return
		}
		j := s.pending[qi]
		s.pending = append(s.pending[:qi], s.pending[qi+1:]...)
		if s.beginPlace(j, target, 1) {
			placed++
		}
	}
}

// beginPlace runs one placement operation against target. Without a
// fault injector it is the synchronous start it always was. With one,
// the grant can be dropped (retry with bounded exponential backoff,
// then back to the queue) or delayed (the start lands late and is
// re-validated). Reports whether the job started now.
func (s *scheduler) beginPlace(j *job, target, attempt int) bool {
	if s.fleetInj != nil {
		drop, delay := s.fleetInj.GrantFault(target)
		if drop {
			now := s.loop.Now()
			s.noteFault(now)
			s.grantDropped(target, now)
			if attempt <= s.cfg.MaxPlacementRetries {
				backoff := s.cfg.PlacementBackoff << (attempt - 1)
				s.res.PlacementRetries++
				if s.obs != nil {
					s.obs.OnPlacementRetry(obs.PlacementRetry{
						At: now, Job: j.name, Server: target,
						Attempt: attempt, Backoff: backoff,
					})
				}
				s.loop.After(backoff, func() { s.retryPlace(j, attempt+1) })
			} else {
				// Retry budget exhausted: the job rejoins the queue and
				// waits for a calmer fleet.
				s.pending = append(s.pending, j)
			}
			return false
		}
		// The grant went through (if late): the server answered, so its
		// failure streak resets.
		s.health[target].failStreak = 0
		if delay > 0 {
			s.loop.After(delay, func() { s.delayedStart(j, target) })
			return false
		}
	}
	s.start(j, target)
	return true
}

// retryPlace re-runs a dropped placement with a fresh pick — the
// original target may have been quarantined or crashed meanwhile.
func (s *scheduler) retryPlace(j *job, attempt int) {
	if j.state != statePending {
		return
	}
	if !s.admissible(j) {
		// The pool drained while the retry backoff ran; rejoin the queue.
		s.pending = append(s.pending, j)
		return
	}
	target := s.pick()
	if target < 0 {
		s.pending = append(s.pending, j)
		return
	}
	s.beginPlace(j, target, attempt)
}

// delayedStart lands a delayed grant: the capacity and the server's
// health must be re-validated, since both may have changed in flight.
func (s *scheduler) delayedStart(j *job, target int) {
	if s.fleet.Crashed(target) || s.avoid(target) || s.free(target) < 1 || !s.admissible(j) {
		s.pending = append(s.pending, j)
		return
	}
	s.start(j, target)
}

func (s *scheduler) start(j *job, server int) {
	now := s.loop.Now()
	harvest := s.fleet.HarvestedCores(server)
	grant := harvest - s.committed[server]
	if grant > j.spec.Width {
		grant = j.spec.Width
	}
	j.state = stateRunning
	j.server = server
	j.grant = grant
	if s.obs != nil {
		s.obs.OnJobStart(obs.JobStart{
			At: now, Job: j.name, Server: server, Grant: grant,
			Harvest: harvest, Attempt: j.evictions + 1, Remaining: j.remaining(),
		})
	}
	if s.ledger != nil && j.pool != nil {
		s.ledger.Grant(j.pool, j.name)
	}
	s.committed[server] += grant
	vm := s.fleet.AddJobVM(server, fmt.Sprintf("%s-a%d", j.name, j.evictions+1), grant)
	j.vm = vm
	j.app = apps.NewFiniteWork(s.loop, vm, j.remaining(), func() {
		// Defer completion out of the hypervisor's dispatch path: the
		// callback fires inside the guest-work completion, where tearing
		// the VM down and placing successors is not re-entrant-safe.
		s.loop.After(0, func() { s.complete(j) })
	})
	j.app.Start()
	s.running[server] = append(s.running[server], j)
}

// detach removes j from its server's running list and returns its cores.
func (s *scheduler) detach(j *job) {
	rs := s.running[j.server]
	for i, r := range rs {
		if r == j {
			s.running[j.server] = append(rs[:i], rs[i+1:]...)
			break
		}
	}
	s.committed[j.server] -= j.grant
	if s.committed[j.server] < 0 {
		s.committed[j.server] = 0
	}
}

func (s *scheduler) complete(j *job) {
	if j.state != stateRunning || !j.app.Done() {
		return // evicted between the callback and this deferred event
	}
	now := s.loop.Now()
	j.progress = j.spec.Work
	j.state = stateDone
	j.doneAt = now
	s.detach(j)
	s.fleet.RemoveJobVM(j.server, j.vm)
	if s.obs != nil {
		s.obs.OnJobComplete(obs.JobComplete{
			At: now, Job: j.name, Server: j.server,
			Elapsed: now - j.submitAt, Evictions: j.evictions,
		})
	}
	if j.deadline != 0 && now > j.deadline {
		j.sloMissed = true
		if s.obs != nil {
			s.obs.OnJobSLOMiss(obs.JobSLOMiss{
				At: now, Job: j.name, Deadline: j.deadline, Late: now - j.deadline,
			})
		}
	}
	s.tryPlace()
}

// readHarvest returns server i's harvested-core telemetry and whether
// the reading is fresh. Under a read-stale fault the last fresh value is
// returned instead — that is what a monitoring channel serving cached
// data looks like. Without an injector the read is always fresh.
func (s *scheduler) readHarvest(i int) (int, bool) {
	if s.fleetInj != nil && s.fleetInj.ReadStale(i) {
		return s.lastHarvest[i], false
	}
	h := s.fleet.HarvestedCores(i)
	if s.lastHarvest != nil {
		s.lastHarvest[i] = h
	}
	return h, true
}

// reconcile evicts jobs from servers whose harvest collapsed below their
// commitments, requeues the survivors' remainders, and places whatever
// now fits.
func (s *scheduler) reconcile() {
	now := s.loop.Now()
	if s.ledger != nil {
		s.marketTick()
	}
	for i := range s.running {
		if s.fleet.Crashed(i) {
			// Crash handling already orphaned this server's jobs; there
			// is nothing to reconcile until it restarts.
			continue
		}
		if s.fleetInj != nil && s.fleetInj.ReconcileLoss(i) {
			s.noteFault(now)
			continue // this round's reconcile message was lost
		}
		h, fresh := s.readHarvest(i)
		if s.committed[i] <= h {
			continue
		}
		if !fresh {
			// A collapsed reading from stale telemetry is not evidence of
			// a real collapse — it may be a cached zero from before the
			// harvest ramped up. Confirm with a fresh read before evicting
			// anything; if the channel stays stale, defer to next round
			// rather than evict on data we cannot trust.
			h, fresh = s.readHarvest(i)
			if !fresh || s.committed[i] <= h {
				continue
			}
		}
		// Evict newest-first: the most recently placed jobs have the
		// least progress to protect. With a market, the SLA tier comes
		// first — spot members absorb the collapse before standard,
		// premium last — and the ledger charges the eviction before the
		// job-level event lands.
		for s.committed[i] > h {
			victim := s.victim(i)
			if victim == nil {
				break
			}
			if s.ledger != nil && victim.pool != nil {
				s.ledger.CapacityEvict(victim.pool, victim.name)
			}
			s.evict(victim)
		}
	}
	if s.health != nil {
		s.pruneFaults(now)
		if s.degraded && len(s.faultTimes) <= s.cfg.DegradeExit {
			s.degraded = false
			if s.obs != nil {
				s.obs.OnAdmissionDegraded(obs.AdmissionDegraded{
					At: now, Entered: false,
					Faults: len(s.faultTimes), Window: s.cfg.DegradeWindow,
				})
			}
		}
	}
	s.tryPlace()
}

// noteFault records one fault signal (dropped grant, crash, lost
// reconcile) in the sliding degradation window, entering degraded
// admission when the windowed count crosses the threshold.
func (s *scheduler) noteFault(now sim.Time) {
	s.faultTimes = append(s.faultTimes, now)
	s.pruneFaults(now)
	if !s.degraded && len(s.faultTimes) >= s.cfg.DegradeEnter {
		s.degraded = true
		s.res.Degraded++
		if s.obs != nil {
			s.obs.OnAdmissionDegraded(obs.AdmissionDegraded{
				At: now, Entered: true,
				Faults: len(s.faultTimes), Window: s.cfg.DegradeWindow,
			})
		}
	}
}

func (s *scheduler) pruneFaults(now sim.Time) {
	cut := now - s.cfg.DegradeWindow
	k := 0
	for _, t := range s.faultTimes {
		if t > cut {
			s.faultTimes[k] = t
			k++
		}
	}
	s.faultTimes = s.faultTimes[:k]
}

// grantDropped charges a dropped grant to the server's failure streak
// and quarantines it when the streak crosses the threshold.
func (s *scheduler) grantDropped(server int, now sim.Time) {
	h := &s.health[server]
	h.failStreak++
	if h.failStreak >= s.cfg.QuarantineAfter && !(h.quarantined && now < h.quarUntil) {
		s.quarantine(server, now, false)
	}
}

// quarantine takes server i out of placement rotation for a window that
// doubles with each re-entry, capped at QuarantineMax.
func (s *scheduler) quarantine(server int, now sim.Time, crash bool) {
	h := &s.health[server]
	dur := s.cfg.QuarantineMax
	if h.quarStreak < 32 {
		if d := s.cfg.QuarantineDur << h.quarStreak; d < dur {
			dur = d
		}
		h.quarStreak++
	}
	h.quarantined = true
	h.quarUntil = now + dur
	s.res.Quarantines++
	if s.obs != nil {
		s.obs.OnServerQuarantine(obs.ServerQuarantine{
			At: now, Server: server, Failures: h.failStreak,
			Crash: crash, Until: h.quarUntil,
		})
	}
	s.loop.After(dur, func() { s.probation(server) })
}

// probation re-admits a quarantined server on trial once its window
// elapses: it can take placements again, but one more failure before
// ProbationDur passes re-quarantines it with a doubled window, and a
// clean probation clears its record.
func (s *scheduler) probation(server int) {
	now := s.loop.Now()
	h := &s.health[server]
	if s.fleet.Crashed(server) {
		// Down again already: the restart path re-quarantines; this
		// probation window never opens.
		return
	}
	if !h.quarantined || now < h.quarUntil {
		return // stale timer from an earlier, superseded quarantine
	}
	h.quarantined = false
	h.probUntil = now + s.cfg.ProbationDur
	if s.obs != nil {
		s.obs.OnServerProbation(obs.ServerProbation{
			At: now, Server: server, Until: h.probUntil,
		})
	}
	s.loop.After(s.cfg.ProbationDur, func() { s.probationEnd(server) })
	s.tryPlace()
}

func (s *scheduler) probationEnd(server int) {
	h := &s.health[server]
	if h.quarantined || s.fleet.Crashed(server) {
		return // flapped back inside probation; the record stands
	}
	if s.loop.Now() < h.probUntil {
		return
	}
	h.failStreak, h.quarStreak, h.probUntil = 0, 0, 0
}

// onCrash is the fleet's server-crash callback: every job running on
// the server is orphaned and immediately evicted — budget-charged, with
// checkpointed progress intact — then re-placed across the survivors by
// the normal path. Work is never lost silently and never double-counted.
func (s *scheduler) onCrash(server int) {
	now := s.loop.Now()
	s.res.Crashes++
	s.noteFault(now)
	orphans := append([]*job(nil), s.running[server]...)
	if s.ledger != nil {
		// A crash takes every member down; charging the ledger in
		// ascending tier order keeps the SLA contract observable — no
		// premium eviction lands while a spot member still counts as
		// running.
		sort.SliceStable(orphans, func(a, b int) bool {
			return orphans[a].pool.Spec.Tier < orphans[b].pool.Spec.Tier
		})
	}
	for _, j := range orphans {
		if j.app.Done() {
			// Work finished before the crash; the deferred completion
			// fires at this same instant and settles the job.
			continue
		}
		s.res.Orphaned++
		if s.ledger != nil && j.pool != nil {
			s.ledger.CapacityEvict(j.pool, j.name)
		}
		s.evict(j)
	}
	if s.lastHarvest != nil {
		s.lastHarvest[server] = 0
	}
	s.tryPlace()
}

// onRestart is the fleet's server-restart callback: a returning server
// is not trusted yet — it enters quarantine (doubling with each crash)
// and must pass probation before its record clears.
func (s *scheduler) onRestart(server int) {
	now := s.loop.Now()
	h := &s.health[server]
	if h.quarantined && now < h.quarUntil {
		return // an active quarantine window already covers it
	}
	s.quarantine(server, now, true)
}

// marketTick runs one reconcile tick of pool accounting: refill from
// the live fleet harvest in reservation proportion, drain each running
// member's grant for the tick (pools bill in whole reconcile periods),
// flush the per-pool account events, then evict members whose pool ran
// dry — the customer's balance is the platform's admission limit, so
// an exhausted-pool eviction charges no SLA budget.
func (s *scheduler) marketTick() {
	dt := s.cfg.ReconcileEvery
	s.ledger.Refill(s.fleet.TotalHarvestedCores(), dt)
	var exhausted []*job
	for i := range s.running {
		for _, j := range s.running[i] {
			if j.app.Done() || j.pool == nil {
				continue
			}
			want := sim.Time(j.grant) * dt
			if got := s.ledger.Drain(j.pool, want); got < want {
				exhausted = append(exhausted, j)
			}
		}
	}
	s.ledger.FlushAccounting()
	for _, j := range exhausted {
		if j.state != stateRunning || j.app.Done() {
			continue
		}
		s.ledger.ExhaustedEvict(j.pool, j.name)
		s.evict(j)
	}
}

// victim returns server i's next capacity-eviction victim: without a
// market, the most recent placement; with one, the lowest-SLA-tier
// member first, newest placement within the tier.
func (s *scheduler) victim(i int) *job {
	if s.ledger == nil {
		return s.newestVictim(i)
	}
	rs := s.running[i]
	var best *job
	for k := len(rs) - 1; k >= 0; k-- {
		j := rs[k]
		if j.app.Done() || j.pool == nil {
			continue
		}
		if best == nil || j.pool.Spec.Tier < best.pool.Spec.Tier {
			best = j
		}
	}
	return best
}

// newestVictim returns server i's most recently placed evictable job
// (jobs whose work already completed are finalizing, not evictable).
func (s *scheduler) newestVictim(i int) *job {
	rs := s.running[i]
	for k := len(rs) - 1; k >= 0; k-- {
		if !rs[k].app.Done() {
			return rs[k]
		}
	}
	return nil
}

func (s *scheduler) evict(j *job) {
	now := s.loop.Now()
	// Checkpoint: completed chunks survive; in-flight work is forfeited
	// and re-run later, never double-counted.
	j.progress += j.app.Stop()
	if j.progress > j.spec.Work {
		j.progress = j.spec.Work
	}
	j.evictions++
	s.res.Evictions++
	final := j.evictions > s.cfg.MaxRequeues
	if s.obs != nil {
		s.obs.OnJobEvict(obs.JobEvict{
			At: now, Job: j.name, Server: j.server,
			Progress: j.progress, Evictions: j.evictions, Final: final,
		})
	}
	s.detach(j)
	s.fleet.RemoveJobVM(j.server, j.vm)
	j.app = nil
	j.grant = 0
	if final {
		j.state = stateAbandoned
		s.res.Abandoned++
		return
	}
	j.state = statePending
	s.res.Requeues++
	if s.obs != nil {
		s.obs.OnJobRequeue(obs.JobRequeue{
			At: now, Job: j.name, Evictions: j.evictions, Remaining: j.remaining(),
		})
	}
	s.pending = append(s.pending, j)
}

// finalize computes job-level statistics once the run has ended.
func (s *scheduler) finalize() {
	end := s.loop.Now()
	var elapsed []int64
	for _, j := range s.all {
		switch j.state {
		case stateDone:
			s.res.Completed++
			elapsed = append(elapsed, int64(j.doneAt-j.submitAt))
			s.res.GoodputCoreSec += j.spec.Work.Seconds()
		case stateAbandoned:
			// counted at eviction time
		default:
			s.res.Unfinished++
		}
		if j.deadline == 0 {
			continue
		}
		switch {
		case j.state == stateDone:
			s.res.SLOJobs++
			if !j.sloMissed {
				s.res.SLOMet++
			}
		case j.deadline < end:
			// Deadline passed without completion: a decided miss. Jobs
			// whose deadline is still ahead at the end are censored.
			s.res.SLOJobs++
			if s.obs != nil {
				s.obs.OnJobSLOMiss(obs.JobSLOMiss{
					At: end, Job: j.name, Deadline: j.deadline, Late: end - j.deadline,
				})
			}
		}
	}
	if len(elapsed) > 0 {
		s.res.CompletionP50 = sim.Time(metrics.ExactQuantile(elapsed, 0.50))
		s.res.CompletionP99 = sim.Time(metrics.ExactQuantile(elapsed, 0.99))
	}
	if s.ledger != nil {
		s.ledger.Settle()
		s.res.Market = s.ledger.Result()
		// Revenue-weighted goodput: completed core-seconds priced at the
		// job's pool rate. Like GoodputCoreSec, only finished jobs count.
		for _, j := range s.all {
			if j.state == stateDone && j.pool != nil {
				s.res.Market.RevenueGoodput += j.spec.Work.Seconds() * j.pool.Spec.Price
			}
		}
	}
}
