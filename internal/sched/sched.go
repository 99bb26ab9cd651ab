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
// The package is a placement core (this file) that calls two
// collaborators unconditionally: health (health.go) self-heals under
// fleet-level chaos, pools (pools.go) runs the capacity market. Each is
// inert when its plan is absent — no extra events, no extra randomness —
// so fault-free and pool-free runs stay byte-for-byte identical.
// DESIGN.md §9 has the code map.
package sched

import (
	"cmp"
	"fmt"
	"slices"

	"smartharvest/internal/apps"
	"smartharvest/internal/check"
	"smartharvest/internal/cluster"
	"smartharvest/internal/grammar"
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

var policyNames = grammar.Enum[Policy]{Pkg: "sched", What: "policy", Unknown: "unknown",
	Names: []string{"first-fit", "best-fit", "predicted"}}

func (p Policy) String() string { return policyNames.String(p) }

// ParsePolicy parses a Policy from its String form.
func ParsePolicy(s string) (Policy, error) { return policyNames.Parse(s) }

// JobSpec describes one class of batch job.
type JobSpec struct {
	// Work is the job's total CPU demand in core-time.
	Work sim.Time
	// Width is the job's maximum useful parallelism in cores.
	Width int
	// Deadline is the job's SLO, relative to submission; zero means none.
	Deadline sim.Time
}

// reconcileEvery is the eviction/placement reconciliation period: one
// learning window.
const reconcileEvery = 25 * sim.Millisecond

// Config describes one scheduler run.
type Config struct {
	// Fleet configures the underlying cluster simulation; its ElasticVM
	// bully is always disabled — harvested capacity goes to jobs — and
	// Fleet.Observer receives the job lifecycle events too.
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
	// Checker, when set, verifies the job event stream online; Bind is
	// called automatically and the report lands in Result.Check.
	Checker *check.JobChecker
	// Market opens capacity pools over the harvested fleet (pools.go).
	// The zero value is fully inert — no ledger, no extra randomness, no
	// extra events.
	Market market.Config

	// Resilience knobs (health.go). They engage only when Fleet.Faults
	// enables fleet faults (server crashes or control-plane faults);
	// without those no failure is ever observed and the knobs are inert.

	// MaxPlacementRetries bounds how often one placement is retried after
	// a dropped grant before the job returns to the queue (default 3).
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
	// ProbationDur is how long a server leaving quarantine stays on
	// probation: usable, but one more failure re-quarantines it (doubled
	// window), while surviving it clears its record (default 500 ms).
	ProbationDur sim.Time
	// DegradeEnter and DegradeExit govern graceful admission
	// degradation: once DegradeEnter fault signals (dropped grants,
	// crashes, lost reconciles) land within a sliding degradeWindow,
	// placements fall back to conservative first-fit, at most one per
	// round, until the count subsides to DegradeExit (8, 2).
	DegradeEnter int
	DegradeExit  int
}

func (c *Config) applyDefaults() {
	c.Fleet.DisableElasticBully = true
	if len(c.Jobs) == 0 {
		c.Jobs = []JobSpec{
			{Work: 4 * sim.Second, Width: 4, Deadline: 10 * sim.Second},
			{Work: 8 * sim.Second, Width: 8, Deadline: 25 * sim.Second},
			{Work: 16 * sim.Second, Width: 8},
		}
	}
	c.ArrivalRate = cmp.Or(c.ArrivalRate, 1)
	c.MaxRequeues = cmp.Or(c.MaxRequeues, 3)
	c.MaxPlacementRetries = cmp.Or(c.MaxPlacementRetries, 3)
	c.PlacementBackoff = cmp.Or(c.PlacementBackoff, 5*sim.Millisecond)
	c.QuarantineAfter = cmp.Or(c.QuarantineAfter, 3)
	c.QuarantineDur = cmp.Or(c.QuarantineDur, 250*sim.Millisecond)
	c.QuarantineMax = cmp.Or(c.QuarantineMax, 2*sim.Second)
	c.ProbationDur = cmp.Or(c.ProbationDur, 500*sim.Millisecond)
	c.DegradeEnter = cmp.Or(c.DegradeEnter, 8)
	c.DegradeExit = cmp.Or(c.DegradeExit, 2)
}

func (c *Config) validate() error {
	if c.Policy < FirstFit || c.Policy > Predicted {
		return fmt.Errorf("sched: unknown policy %d", int(c.Policy))
	}
	if c.ArrivalRate < 0 || c.MaxRequeues < 0 {
		return fmt.Errorf("sched: negative ArrivalRate or MaxRequeues")
	}
	if c.MaxPlacementRetries < 0 || c.PlacementBackoff < 0 || c.QuarantineAfter < 0 ||
		c.QuarantineDur < 0 || c.QuarantineMax < 0 || c.ProbationDur < 0 ||
		c.DegradeEnter < 0 || c.DegradeExit < 0 {
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
	// forced by them (a subset of Evictions, budget-charged like any).
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
	server    int
	grant     int
	vm        *hypervisor.VM
	app       *apps.FiniteWork
	pool      *market.Pool // nil until assigned (and always, without a market)
	doneAt    sim.Time
	sloMissed bool

	// The completion callbacks, bound once in submit so that starting a
	// placement allocates no closure.
	s          *scheduler
	workDoneFn func() // j.workDone, handed to the job's FiniteWork
	completeFn func() // j.complete, the deferred completion event
}

func (j *job) remaining() sim.Time { return j.spec.Work - j.progress }

// workDone defers completion out of the hypervisor's dispatch path: the
// FiniteWork callback fires inside the guest-work completion, where tearing
// the VM down and placing successors is not re-entrant-safe.
func (j *job) workDone() { j.s.loop.After(0, j.completeFn) }

func (j *job) complete() { j.s.complete(j) }

// evictCause is why a running job loses its server.
type evictCause int

const (
	causeCollapse  evictCause = iota // the server's harvest fell below its commitments
	causeCrash                       // the server went down under the job
	causeExhausted                   // the job's capacity pool ran dry
)

// scheduler is the placement core: it queues jobs, picks servers, starts
// and completes jobs, and evicts and requeues them when harvest
// collapses. It calls its two collaborators unconditionally; each is
// inert when the run has no fleet fault plan, or no pools.
type scheduler struct {
	cfg   Config
	fleet *cluster.Fleet
	loop  *sim.Loop
	obs   obs.Observer

	pending   []*job
	running   [][]*job // per server, placement order
	committed []int    // per server, cores granted to running jobs
	all       []*job

	health *health
	pools  *pools
	res    *Result
}

// BenchConfig is the pinned configuration behind the benchmark's
// sched.benchconfig_ms probe (benchmark/) and BenchmarkPlacement: a
// churny two-server fleet whose reconcile loop exercises placement,
// eviction, and requeue within one simulated second. Changing it breaks
// comparisons of that metric across commits: treat the constants as frozen.
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

// jobConfig is what a JobChecker verifying a run of c on servers
// servers needs to know; c has its defaults applied.
func (c *Config) jobConfig(servers int) check.JobConfig {
	return check.JobConfig{
		MaxRequeues:         c.MaxRequeues,
		Servers:             servers,
		MaxPlacementRetries: c.MaxPlacementRetries,
		PlacementBackoff:    c.PlacementBackoff,
		QuarantineDur:       c.QuarantineDur,
		QuarantineMax:       c.QuarantineMax,
		ProbationDur:        c.ProbationDur,
		DegradeEnter:        c.DegradeEnter,
		DegradeExit:         c.DegradeExit,
		Market:              c.Market,
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
		if err := cfg.Checker.Bind(cfg.jobConfig(fleet.Servers())); err != nil {
			return nil, err
		}
	}

	s := &scheduler{
		cfg: cfg, fleet: fleet, loop: fleet.Loop(),
		obs:       cmp.Or[obs.Observer](cfg.Fleet.Observer, obs.NopObserver{}),
		running:   make([][]*job, fleet.Servers()),
		committed: make([]int, fleet.Servers()),
		res:       &Result{Policy: cfg.Policy},
	}
	seed := cmp.Or(cfg.Fleet.Seed, 1)
	s.health = newHealth(s)
	if s.pools, err = newPools(s, seed); err != nil {
		return nil, err
	}

	// Job arrivals on their own RNG stream (never touching the fleet's),
	// starting after warmup.
	if cfg.ArrivalRate > 0 {
		jrng := simrng.New(seed + 0x9E3779B97F4A7C15)
		var next func()
		next = func() {
			s.submit(cfg.Jobs[jrng.Intn(len(cfg.Jobs))])
			s.loop.After(sim.Time(jrng.Exp(1e9/cfg.ArrivalRate)), next)
		}
		s.loop.At(fleet.Warmup()+sim.Time(jrng.Exp(1e9/cfg.ArrivalRate)), next)
	}

	// Reconciliation: evict overcommitted servers, then place what fits.
	s.loop.NewTicker(fleet.Warmup(), reconcileEvery, s.reconcile)

	if s.res.Fleet, err = fleet.Finish(); err != nil {
		return nil, err
	}
	s.finalize()
	if cfg.Checker != nil {
		s.res.Check = cfg.Checker.Finish()
	}
	return s.res, nil
}

func (s *scheduler) submit(spec JobSpec) {
	now := s.loop.Now()
	j := &job{
		name: fmt.Sprintf("job-%d", len(s.all)), spec: spec, submitAt: now, s: s,
	}
	j.workDoneFn, j.completeFn = j.workDone, j.complete
	if spec.Deadline > 0 {
		j.deadline = now + spec.Deadline
	}
	s.all = append(s.all, j)
	s.res.Submitted++
	s.obs.OnJobSubmit(obs.JobSubmit{
		At: now, Job: j.name, Work: spec.Work, Width: spec.Width, Deadline: j.deadline,
	})
	s.pending = append(s.pending, j)
	s.tryPlace()
}

// requeue returns a job that left the queue (evicted, or its placement
// fell through) to the tail of it.
func (s *scheduler) requeue(j *job) {
	s.pending = append(s.pending, j)
}

// free returns server i's uncommitted harvested cores right now.
func (s *scheduler) free(i int) int {
	return s.fleet.HarvestedCores(i) - s.committed[i]
}

// pick selects a server for the next job per the policy (conservative
// first-fit while admission is degraded), or -1. Every policy requires a
// free core right now — the forecast chooses among servers, it cannot
// conjure cores.
func (s *scheduler) pick() int {
	policy := s.cfg.Policy
	if s.health.degraded {
		policy = FirstFit
	}
	best, bestScore := -1, 0
	for i := range s.running {
		free := s.free(i)
		if free < 1 || s.health.inQuarantine(i) {
			continue
		}
		score := free
		switch policy {
		case FirstFit:
			return i
		case Predicted:
			score = s.fleet.ForecastCores(i) - s.committed[i]
		}
		if score > bestScore {
			best, bestScore = i, score
		}
	}
	return best
}

// tryPlace starts pending jobs while the policy finds room, FIFO among
// the jobs their pools admit (those of exhausted pools wait in line
// without blocking funded ones). Degraded admission throttles to one
// placement per round.
func (s *scheduler) tryPlace() {
	for placed := 0; !(s.health.degraded && placed >= 1); {
		qi := slices.IndexFunc(s.pending, s.pools.admissible)
		if qi < 0 {
			return
		}
		target := s.pick()
		if target < 0 {
			return
		}
		j := s.pending[qi]
		s.pending = slices.Delete(s.pending, qi, qi+1)
		if s.health.grant(j, target, 1) {
			s.start(j, target)
			placed++
		}
	}
}

func (s *scheduler) start(j *job, server int) {
	now := s.loop.Now()
	harvest := s.fleet.HarvestedCores(server)
	grant := min(harvest-s.committed[server], j.spec.Width)
	j.state = stateRunning
	j.server = server
	j.grant = grant
	s.obs.OnJobStart(obs.JobStart{
		At: now, Job: j.name, Server: server, Grant: grant,
		Harvest: harvest, Attempt: j.evictions + 1, Remaining: j.remaining(),
	})
	s.pools.granted(j)
	s.committed[server] += grant
	j.vm = s.fleet.AddJobVM(server, fmt.Sprintf("%s-a%d", j.name, j.evictions+1), grant)
	j.app = apps.NewFiniteWork(s.loop, j.vm, j.remaining(), j.workDoneFn)
	j.app.Start()
	s.running[server] = append(s.running[server], j)
}

// detach removes j from its server's running list and returns its cores.
func (s *scheduler) detach(j *job) {
	rs := s.running[j.server]
	if i := slices.Index(rs, j); i >= 0 {
		s.running[j.server] = slices.Delete(rs, i, i+1)
	}
	s.committed[j.server] = max(s.committed[j.server]-j.grant, 0)
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
	j.vm, j.app = nil, nil
	s.obs.OnJobComplete(obs.JobComplete{
		At: now, Job: j.name, Server: j.server, Elapsed: now - j.submitAt, Evictions: j.evictions,
	})
	if j.deadline != 0 && now > j.deadline {
		j.sloMissed = true
		s.obs.OnJobSLOMiss(obs.JobSLOMiss{
			At: now, Job: j.name, Deadline: j.deadline, Late: now - j.deadline,
		})
	}
	s.tryPlace()
}

// reconcile evicts jobs from servers whose harvest collapsed below their
// commitments, requeues the survivors' remainders, and places whatever
// now fits.
func (s *scheduler) reconcile() {
	now := s.loop.Now()
	s.pools.tick()
	for i := range s.running {
		h, heard := s.health.harvest(i, now)
		if !heard {
			continue
		}
		for s.committed[i] > h {
			j := s.victim(i, causeCollapse)
			if j == nil {
				break
			}
			s.evict(j, causeCollapse)
		}
	}
	s.health.endRound(now)
	s.tryPlace()
}

// victim returns server i's next job to evict, or nil: the lowest SLA
// tier first (spot absorbs an eviction before standard, premium last;
// without a market every job is one tier), and within the tier the
// newest placement under a collapse — it has the least progress to
// protect — but the oldest under a crash, which takes every job down.
// Jobs whose work already completed are finalizing, not evictable.
func (s *scheduler) victim(i int, cause evictCause) *job {
	var best *job
	for _, j := range s.running[i] {
		if j.app.Done() {
			continue
		}
		if best == nil || j.tier() < best.tier() ||
			(cause == causeCollapse && j.tier() == best.tier()) {
			best = j
		}
	}
	return best
}

// evict preempts j: its pool is charged first (the ledger's event
// precedes the job's), its checkpointed progress is kept, and it is
// requeued unless its requeue budget is spent.
func (s *scheduler) evict(j *job, cause evictCause) {
	now := s.loop.Now()
	s.pools.charge(j, cause)
	// Checkpoint: completed chunks survive; in-flight work is forfeited
	// and re-run later, never double-counted.
	j.progress = min(j.progress+j.app.Stop(), j.spec.Work)
	j.evictions++
	s.res.Evictions++
	final := j.evictions > s.cfg.MaxRequeues
	s.obs.OnJobEvict(obs.JobEvict{
		At: now, Job: j.name, Server: j.server, Progress: j.progress, Evictions: j.evictions, Final: final,
	})
	s.detach(j)
	s.fleet.RemoveJobVM(j.server, j.vm)
	j.vm, j.app = nil, nil
	j.grant = 0
	if final {
		j.state = stateAbandoned
		s.res.Abandoned++
		return
	}
	j.state = statePending
	s.res.Requeues++
	s.obs.OnJobRequeue(obs.JobRequeue{
		At: now, Job: j.name, Evictions: j.evictions, Remaining: j.remaining(),
	})
	s.requeue(j)
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
		case statePending, stateRunning: // abandoned jobs were counted at eviction
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
			s.obs.OnJobSLOMiss(obs.JobSLOMiss{
				At: end, Job: j.name, Deadline: j.deadline, Late: end - j.deadline,
			})
		}
	}
	if len(elapsed) > 0 {
		s.res.CompletionP50 = sim.Time(metrics.ExactQuantile(elapsed, 0.50))
		s.res.CompletionP99 = sim.Time(metrics.ExactQuantile(elapsed, 0.99))
	}
	s.res.Market = s.pools.settle()
}
