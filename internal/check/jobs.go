package check

import (
	"fmt"
	"sort"

	"smartharvest/internal/market"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// Fleet-scheduler invariant identifiers (see internal/sched for the
// subsystem these verify).
const (
	// InvJobLifecycle: job events follow the legal state machine —
	// submit once, start only from the queue, evict/complete only while
	// running, complete at most once.
	InvJobLifecycle = "job-lifecycle"
	// InvJobProgress: checkpointed progress is monotone, never exceeds
	// the job's work, and every start/requeue reports the remainder as
	// exactly work minus checkpointed progress — evicted work is never
	// double-counted.
	InvJobProgress = "job-progress"
	// InvJobCapacity: a placement's grant fits the job's width and the
	// server's harvested cores net of what other jobs already hold — no
	// job runs on more cores than the elastic group has to spare.
	InvJobCapacity = "job-capacity"
	// InvJobRequeue: the requeue count is bounded — an eviction past the
	// budget is marked final and the job is never requeued after it.
	InvJobRequeue = "job-requeue"
	// InvJobSLO: SLO misses are reported truthfully — only for
	// deadline-bearing jobs, after the deadline, with the lateness exact.
	InvJobSLO = "job-slo"
	// InvServerHealth: placements respect server health — no grant lands
	// on a crashed or quarantined server, a server crashes/restarts in
	// strict alternation, and a restart reports its true downtime.
	InvServerHealth = "server-health"
	// InvOrphanProgress: a server crash orphans every job running on it —
	// each one is evicted (progress-conserving, budget-charged) or
	// completed at the crash instant; none silently keeps "running" on a
	// dead server, so no work is lost or double-counted.
	InvOrphanProgress = "orphan-progress"
	// InvQuarantineTiming: quarantine and probation windows are legal —
	// quarantine durations follow the configured bounded doubling,
	// probation begins only once the quarantine has fully elapsed and
	// lasts exactly the configured duration.
	InvQuarantineTiming = "quarantine-timing"
	// InvPlacementRetry: placement retries are bounded and back off
	// exponentially from the configured base.
	InvPlacementRetry = "placement-retry"
	// InvAdmissionLegal: degraded-admission transitions alternate
	// enter/exit and honor the configured fault-count thresholds.
	InvAdmissionLegal = "admission-legality"
	// InvPoolConservation: pool balances are conserved — every
	// PoolAccount's balance is exactly the previous balance plus refill
	// minus drain, bounded by [0, size], and jobs are granted only
	// against a positive balance.
	InvPoolConservation = "pool-conservation"
	// InvTierOrdering: capacity evictions honor the SLA ladder — a
	// member job is preempted for harvest collapse only when no
	// lower-tier job is still running on the same server.
	InvTierOrdering = "tier-ordering"
	// InvOvercommitBound: pool admission is legal — every PoolOpen fits
	// the tier's committed reservations under overcommit × tier factor ×
	// forecast, and every PoolReject would actually have exceeded it.
	InvOvercommitBound = "overcommit-bound"
	// InvPenaltyAccounting: SLA penalties are charged exactly — a
	// capacity eviction is a violation iff it exceeds the tier's budget,
	// each violation costs penalty factor × pool price, and the
	// PoolSettle totals match the event stream.
	InvPenaltyAccounting = "penalty-accounting"
)

// JobConfig binds a JobChecker to the facts of one scheduler run.
type JobConfig struct {
	// MaxRequeues is the scheduler's requeue budget per job; an eviction
	// beyond it must be final. Zero skips the bound checks.
	MaxRequeues int
	// Servers is the fleet size; placements must name a server in range.
	Servers int

	// Fleet-resilience knobs (all optional; zero skips the matching
	// checks). These mirror sched.Config's resilience parameters.

	// MaxPlacementRetries bounds PlacementRetry.Attempt.
	MaxPlacementRetries int
	// PlacementBackoff is the base retry backoff; attempt k must back off
	// exactly PlacementBackoff << (k-1).
	PlacementBackoff sim.Time
	// QuarantineDur and QuarantineMax bound quarantine windows: every
	// quarantine must last min(QuarantineDur << k, QuarantineMax) for
	// some k >= 0.
	QuarantineDur sim.Time
	QuarantineMax sim.Time
	// ProbationDur is the exact probation window length.
	ProbationDur sim.Time
	// DegradeEnter / DegradeExit are the windowed fault-count thresholds
	// for entering and leaving degraded admission (checked when
	// DegradeEnter > 0).
	DegradeEnter int
	DegradeExit  int

	// Market is the harvested-capacity market config in force (see
	// internal/market); the checker recomputes admission bounds, SLA
	// budgets, and penalties from it. The zero value still validates
	// pool-event bookkeeping, with the default overcommit ratio.
	Market market.Config
}

// Job lifecycle states tracked by the JobChecker.
type jobPhase uint8

const (
	jobQueued jobPhase = iota
	jobRunning
	jobEvicted // preempted, awaiting requeue
	jobDone
	jobAbandoned
)

var jobPhaseNames = [...]string{"queued", "running", "evicted", "done", "abandoned"}

func (p jobPhase) String() string {
	if int(p) < len(jobPhaseNames) {
		return jobPhaseNames[p]
	}
	return "unknown"
}

// jobState is one job's tracked lifecycle.
type jobState struct {
	work      sim.Time
	width     int
	deadline  sim.Time
	submitAt  sim.Time
	phase     jobPhase
	progress  sim.Time
	evictions int
	server    int
	grant     int
	sloMissed bool
}

// JobChecker validates a fleet-scheduler event stream (the job-* events)
// against the scheduler's safety contract: lifecycle legality, monotone
// never-double-counted progress, capacity-respecting placements, and a
// bounded requeue count. It is an obs.Observer — attach it alongside (or
// instead of) the per-machine Checker; non-job events only feed its
// flight recorder and the shared time checks. One JobChecker verifies
// one run.
type JobChecker struct {
	recorder
	cfg JobConfig

	jobs      map[string]*jobState
	committed []int // per-server cores granted to running jobs

	// Fleet health tracked from server-* events (sized Servers at Bind;
	// nil when the fleet size is unknown).
	health []serverHealth
	// orphans are jobs that were running on a server when it crashed;
	// each must be evicted or completed at the crash instant.
	orphans  map[string]bool
	orphanAt sim.Time
	degraded bool // degraded-admission state from AdmissionDegraded events

	// Capacity-market state reconstructed from pool-* events (nil maps
	// until the first pool event; zero outside market runs).
	pools         map[string]*poolState
	jobPool       map[string]*poolState // running job → funding pool (PoolGrant)
	poolCommitted [3]int                // admitted reserved cores per tier
}

// poolState is one admitted pool's accounting as reconstructed from the
// event stream.
type poolState struct {
	tier       market.Tier
	reserved   int
	size       sim.Time
	price      float64
	balance    sim.Time
	consumed   sim.Time
	evictions  int
	violations int
	penalties  float64
	settled    bool
}

// serverHealth is one server's state as reconstructed from the event
// stream.
type serverHealth struct {
	crashed     bool
	crashAt     sim.Time
	quarantined bool
	quarUntil   sim.Time
}

// NewJobChecker returns an unbound JobChecker; call Bind before events
// arrive (sched.Run binds it automatically).
func NewJobChecker() *JobChecker {
	c := &JobChecker{jobs: make(map[string]*jobState)}
	c.init(c)
	return c
}

// Bind attaches the run's configuration. It must be called exactly once,
// before any event.
func (c *JobChecker) Bind(cfg JobConfig) error {
	if c.bound {
		return fmt.Errorf("check: JobChecker already bound (one JobChecker verifies one run)")
	}
	if cfg.MaxRequeues < 0 || cfg.Servers < 0 {
		return fmt.Errorf("check: negative MaxRequeues or Servers")
	}
	c.cfg = cfg
	if cfg.Servers > 0 {
		c.committed = make([]int, cfg.Servers)
		c.health = make([]serverHealth, cfg.Servers)
	}
	c.bound = true
	return nil
}

// Finish returns the report; calling it again returns the same report.
func (c *JobChecker) Finish() *Report { return &c.report }

// Report returns the accumulated report.
func (c *JobChecker) Report() *Report { return c.Finish() }

// Observe implements obs.Sink. The shared checks — usage, time
// monotonicity, orphan resolution — run first, then the kind's own
// handler; the per-machine agent events have none and only feed the
// flight recorder and the shared checks.
func (c *JobChecker) Observe(rec *obs.Record) {
	at := rec.At()
	if !c.begin(rec, at) {
		return
	}
	c.checkTime(rec, at)
	// Orphaned jobs must be resolved (evicted or completed) at the crash
	// instant; virtual time advancing past it with orphans outstanding
	// means their work was silently lost.
	if len(c.orphans) > 0 && at > c.orphanAt {
		for job := range c.orphans {
			c.violatef(InvOrphanProgress, at, rec,
				"job %q was running on a server that crashed at %v and was never evicted or completed",
				job, c.orphanAt)
		}
		clear(c.orphans)
	}
	switch rec.Kind {
	case obs.KindJobSubmit:
		c.jobSubmit(rec)
	case obs.KindJobStart:
		c.jobStart(rec)
	case obs.KindJobEvict:
		c.jobEvict(rec)
	case obs.KindJobRequeue:
		c.jobRequeue(rec)
	case obs.KindJobComplete:
		c.jobComplete(rec)
	case obs.KindJobSLOMiss:
		c.jobSLOMiss(rec)
	case obs.KindServerCrash:
		c.serverCrash(rec)
	case obs.KindServerRestart:
		c.serverRestart(rec)
	case obs.KindServerQuarantine:
		c.serverQuarantine(rec)
	case obs.KindServerProbation:
		c.serverProbation(rec)
	case obs.KindPlacementRetry:
		c.placementRetry(rec)
	case obs.KindAdmissionDegraded:
		c.admissionDegraded(rec)
	case obs.KindPoolOpen:
		c.poolOpen(rec)
	case obs.KindPoolReject:
		c.poolReject(rec)
	case obs.KindPoolGrant:
		c.poolGrant(rec)
	case obs.KindPoolAccount:
		c.poolAccount(rec)
	case obs.KindPoolEvict:
		c.poolEvict(rec)
	case obs.KindPoolSettle:
		c.poolSettle(rec)
	}
}

// serverOK validates a placement's server index and returns whether the
// committed-core account can be consulted.
func (c *JobChecker) serverOK(server int, at sim.Time, rec *obs.Record) bool {
	if c.cfg.Servers > 0 && (server < 0 || server >= c.cfg.Servers) {
		c.violatef(InvJobCapacity, at, rec, "server %d outside [0, %d)", server, c.cfg.Servers)
		return false
	}
	return c.committed != nil && server >= 0 && server < len(c.committed)
}

func (c *JobChecker) jobSubmit(rec *obs.Record) {
	e := &rec.JobSubmit
	if _, dup := c.jobs[e.Job]; dup {
		c.violatef(InvJobLifecycle, e.At, rec, "job %q submitted twice", e.Job)
		return
	}
	if e.Work <= 0 || e.Width < 1 {
		c.violatef(InvJobLifecycle, e.At, rec,
			"job %q with work %v and width %d", e.Job, e.Work, e.Width)
	}
	if e.Deadline != 0 && e.Deadline < e.At {
		c.violatef(InvJobLifecycle, e.At, rec,
			"job %q submitted at %v with deadline %v already past", e.Job, e.At, e.Deadline)
	}
	c.jobs[e.Job] = &jobState{
		work: e.Work, width: e.Width, deadline: e.Deadline,
		submitAt: e.At, phase: jobQueued, server: -1,
	}
}

func (c *JobChecker) jobStart(rec *obs.Record) {
	e := &rec.JobStart
	j, ok := c.jobs[e.Job]
	if !ok {
		c.violatef(InvJobLifecycle, e.At, rec, "start of unsubmitted job %q", e.Job)
		return
	}
	if j.phase != jobQueued {
		c.violatef(InvJobLifecycle, e.At, rec,
			"start of job %q while %s, want queued", e.Job, j.phase)
	}
	if e.Grant < 1 || e.Grant > j.width {
		c.violatef(InvJobCapacity, e.At, rec,
			"job %q granted %d cores outside [1, width %d]", e.Job, e.Grant, j.width)
	}
	if ok := c.serverOK(e.Server, e.At, rec); ok {
		if free := e.Harvest - c.committed[e.Server]; e.Grant > free {
			c.violatef(InvJobCapacity, e.At, rec,
				"job %q granted %d cores on server %d with only %d harvested free (%d harvested, %d committed)",
				e.Job, e.Grant, e.Server, free, e.Harvest, c.committed[e.Server])
		}
		c.committed[e.Server] += e.Grant
		if h := &c.health[e.Server]; h.crashed {
			c.violatef(InvServerHealth, e.At, rec,
				"job %q granted cores on server %d, which crashed at %v and has not restarted",
				e.Job, e.Server, h.crashAt)
		} else if h.quarantined && e.At < h.quarUntil {
			c.violatef(InvServerHealth, e.At, rec,
				"job %q granted cores on server %d while quarantined until %v",
				e.Job, e.Server, h.quarUntil)
		}
	}
	if e.Attempt != j.evictions+1 {
		c.violatef(InvJobLifecycle, e.At, rec,
			"job %q starting attempt %d after %d evictions, want %d",
			e.Job, e.Attempt, j.evictions, j.evictions+1)
	}
	if want := j.work - j.progress; e.Remaining != want {
		c.violatef(InvJobProgress, e.At, rec,
			"job %q starts with remaining %v, checkpointed progress %v of %v leaves %v",
			e.Job, e.Remaining, j.progress, j.work, want)
	}
	j.phase = jobRunning
	j.server = e.Server
	j.grant = e.Grant
}

// release returns a job's granted cores to its server's account.
func (c *JobChecker) release(j *jobState) {
	if c.committed != nil && j.server >= 0 && j.server < len(c.committed) {
		c.committed[j.server] -= j.grant
		if c.committed[j.server] < 0 {
			c.committed[j.server] = 0
		}
	}
	j.grant = 0
}

func (c *JobChecker) jobEvict(rec *obs.Record) {
	e := &rec.JobEvict
	j, ok := c.jobs[e.Job]
	if !ok {
		c.violatef(InvJobLifecycle, e.At, rec, "eviction of unsubmitted job %q", e.Job)
		return
	}
	if j.phase != jobRunning {
		c.violatef(InvJobLifecycle, e.At, rec,
			"eviction of job %q while %s, want running", e.Job, j.phase)
	} else if e.Server != j.server {
		c.violatef(InvJobLifecycle, e.At, rec,
			"job %q evicted from server %d but runs on %d", e.Job, e.Server, j.server)
	}
	// Progress is a cumulative checkpoint: it may only grow, and never
	// past the job's total work (either way work would be double-counted
	// on the next placement or in goodput).
	if e.Progress < j.progress {
		c.violatef(InvJobProgress, e.At, rec,
			"job %q checkpoint regressed from %v to %v", e.Job, j.progress, e.Progress)
	}
	if e.Progress > j.work {
		c.violatef(InvJobProgress, e.At, rec,
			"job %q checkpoint %v exceeds its total work %v", e.Job, e.Progress, j.work)
	}
	if e.Evictions != j.evictions+1 {
		c.violatef(InvJobRequeue, e.At, rec,
			"job %q eviction count %d, want %d", e.Job, e.Evictions, j.evictions+1)
	}
	if c.cfg.MaxRequeues > 0 {
		if wantFinal := e.Evictions > c.cfg.MaxRequeues; e.Final != wantFinal {
			c.violatef(InvJobRequeue, e.At, rec,
				"job %q eviction %d of budget %d marked final=%t, want %t",
				e.Job, e.Evictions, c.cfg.MaxRequeues, e.Final, wantFinal)
		}
	}
	c.release(j)
	delete(c.orphans, e.Job)
	delete(c.jobPool, e.Job)
	j.progress = e.Progress
	j.evictions = e.Evictions
	if e.Final {
		j.phase = jobAbandoned
	} else {
		j.phase = jobEvicted
	}
}

func (c *JobChecker) jobRequeue(rec *obs.Record) {
	e := &rec.JobRequeue
	j, ok := c.jobs[e.Job]
	if !ok {
		c.violatef(InvJobLifecycle, e.At, rec, "requeue of unsubmitted job %q", e.Job)
		return
	}
	if j.phase == jobAbandoned {
		c.violatef(InvJobRequeue, e.At, rec,
			"job %q requeued after a final eviction", e.Job)
	} else if j.phase != jobEvicted {
		c.violatef(InvJobLifecycle, e.At, rec,
			"requeue of job %q while %s, want evicted", e.Job, j.phase)
	}
	if e.Evictions != j.evictions {
		c.violatef(InvJobRequeue, e.At, rec,
			"job %q requeued with eviction count %d, want %d", e.Job, e.Evictions, j.evictions)
	}
	if c.cfg.MaxRequeues > 0 && e.Evictions > c.cfg.MaxRequeues {
		c.violatef(InvJobRequeue, e.At, rec,
			"job %q requeue %d exceeds the budget %d", e.Job, e.Evictions, c.cfg.MaxRequeues)
	}
	if want := j.work - j.progress; e.Remaining != want {
		c.violatef(InvJobProgress, e.At, rec,
			"job %q requeued with remaining %v, checkpointed progress %v of %v leaves %v",
			e.Job, e.Remaining, j.progress, j.work, want)
	}
	j.phase = jobQueued
}

func (c *JobChecker) jobComplete(rec *obs.Record) {
	e := &rec.JobComplete
	j, ok := c.jobs[e.Job]
	if !ok {
		c.violatef(InvJobLifecycle, e.At, rec, "completion of unsubmitted job %q", e.Job)
		return
	}
	if j.phase == jobDone {
		c.violatef(InvJobLifecycle, e.At, rec, "job %q completed twice", e.Job)
		return
	}
	if j.phase != jobRunning {
		c.violatef(InvJobLifecycle, e.At, rec,
			"completion of job %q while %s, want running", e.Job, j.phase)
	} else if e.Server != j.server {
		c.violatef(InvJobLifecycle, e.At, rec,
			"job %q completed on server %d but runs on %d", e.Job, e.Server, j.server)
	}
	if want := e.At - j.submitAt; e.Elapsed != want {
		c.violatef(InvJobLifecycle, e.At, rec,
			"job %q reports elapsed %v, submitted at %v so want %v", e.Job, e.Elapsed, j.submitAt, want)
	}
	if e.Evictions != j.evictions {
		c.violatef(InvJobRequeue, e.At, rec,
			"job %q completed with eviction count %d, want %d", e.Job, e.Evictions, j.evictions)
	}
	c.release(j)
	delete(c.orphans, e.Job)
	delete(c.jobPool, e.Job)
	j.phase = jobDone
	j.progress = j.work
}

func (c *JobChecker) jobSLOMiss(rec *obs.Record) {
	e := &rec.JobSLOMiss
	j, ok := c.jobs[e.Job]
	if !ok {
		c.violatef(InvJobSLO, e.At, rec, "SLO miss for unsubmitted job %q", e.Job)
		return
	}
	if j.deadline == 0 {
		c.violatef(InvJobSLO, e.At, rec, "SLO miss for job %q with no deadline", e.Job)
		return
	}
	if j.sloMissed {
		c.violatef(InvJobSLO, e.At, rec, "job %q missed its SLO twice", e.Job)
	}
	if e.Deadline != j.deadline {
		c.violatef(InvJobSLO, e.At, rec,
			"SLO miss reports deadline %v, job %q has %v", e.Deadline, e.Job, j.deadline)
	}
	if e.At <= j.deadline {
		c.violatef(InvJobSLO, e.At, rec,
			"SLO miss at %v, before job %q's deadline %v", e.At, e.Job, j.deadline)
	}
	if want := e.At - j.deadline; e.Late != want {
		c.violatef(InvJobSLO, e.At, rec,
			"SLO miss reports %v late, deadline %v at time %v gives %v", e.Late, j.deadline, e.At, want)
	}
	j.sloMissed = true
}

// fleetServerOK validates a fleet event's server index and returns
// whether health can be consulted.
func (c *JobChecker) fleetServerOK(inv string, server int, at sim.Time, rec *obs.Record) bool {
	if c.cfg.Servers > 0 && (server < 0 || server >= c.cfg.Servers) {
		c.violatef(inv, at, rec, "server %d outside [0, %d)", server, c.cfg.Servers)
		return false
	}
	return c.health != nil && server >= 0 && server < len(c.health)
}

// legalQuarantine reports whether dur is min(base << k, max) for some
// k >= 0 — the bounded-doubling contract quarantine windows must follow.
func legalQuarantine(dur, base, max sim.Time) bool {
	for k := 0; k < 63; k++ {
		step := base << k
		if max > 0 && step >= max {
			return dur == max
		}
		if dur == step {
			return true
		}
		if step > dur {
			return false
		}
	}
	return false
}

// serverCrash: the server goes down, and every job running on it becomes
// an orphan that must be resolved at this instant.
func (c *JobChecker) serverCrash(rec *obs.Record) {
	e := &rec.ServerCrash
	if e.Down <= 0 {
		c.violatef(InvServerHealth, e.At, rec,
			"server %d crash with non-positive downtime %v", e.Server, e.Down)
	}
	if !c.fleetServerOK(InvServerHealth, e.Server, e.At, rec) {
		return
	}
	h := &c.health[e.Server]
	if h.crashed {
		c.violatef(InvServerHealth, e.At, rec,
			"server %d crashed again while already down since %v", e.Server, h.crashAt)
	}
	h.crashed = true
	h.crashAt = e.At
	for name, j := range c.jobs {
		if j.phase == jobRunning && j.server == e.Server {
			if c.orphans == nil {
				c.orphans = make(map[string]bool)
			}
			c.orphans[name] = true
		}
	}
	c.orphanAt = e.At
}

func (c *JobChecker) serverRestart(rec *obs.Record) {
	e := &rec.ServerRestart
	if !c.fleetServerOK(InvServerHealth, e.Server, e.At, rec) {
		return
	}
	h := &c.health[e.Server]
	if !h.crashed {
		c.violatef(InvServerHealth, e.At, rec,
			"server %d restart without a matching crash", e.Server)
	} else if want := e.At - h.crashAt; e.Down != want {
		c.violatef(InvServerHealth, e.At, rec,
			"server %d restart reports downtime %v, crashed at %v so want %v",
			e.Server, e.Down, h.crashAt, want)
	}
	h.crashed = false
}

func (c *JobChecker) serverQuarantine(rec *obs.Record) {
	e := &rec.ServerQuarantine
	if e.Until <= e.At {
		c.violatef(InvQuarantineTiming, e.At, rec,
			"server %d quarantined until %v, not after the event time %v", e.Server, e.Until, e.At)
	}
	if !e.Crash && e.Failures < 1 {
		c.violatef(InvQuarantineTiming, e.At, rec,
			"server %d quarantined for %d failures without a crash", e.Server, e.Failures)
	}
	if c.cfg.QuarantineDur > 0 {
		if dur := e.Until - e.At; !legalQuarantine(dur, c.cfg.QuarantineDur, c.cfg.QuarantineMax) {
			c.violatef(InvQuarantineTiming, e.At, rec,
				"server %d quarantine lasts %v, want min(%v << k, %v)",
				e.Server, dur, c.cfg.QuarantineDur, c.cfg.QuarantineMax)
		}
	}
	if !c.fleetServerOK(InvQuarantineTiming, e.Server, e.At, rec) {
		return
	}
	h := &c.health[e.Server]
	if h.quarantined && e.At < h.quarUntil {
		c.violatef(InvQuarantineTiming, e.At, rec,
			"server %d re-quarantined at %v inside its active quarantine (until %v)",
			e.Server, e.At, h.quarUntil)
	}
	h.quarantined = true
	h.quarUntil = e.Until
}

func (c *JobChecker) serverProbation(rec *obs.Record) {
	e := &rec.ServerProbation
	if c.cfg.ProbationDur > 0 {
		if want := e.At + c.cfg.ProbationDur; e.Until != want {
			c.violatef(InvQuarantineTiming, e.At, rec,
				"server %d probation until %v, want %v", e.Server, e.Until, want)
		}
	}
	if !c.fleetServerOK(InvQuarantineTiming, e.Server, e.At, rec) {
		return
	}
	h := &c.health[e.Server]
	if !h.quarantined {
		c.violatef(InvQuarantineTiming, e.At, rec,
			"server %d entered probation without being quarantined", e.Server)
	} else if e.At < h.quarUntil {
		c.violatef(InvQuarantineTiming, e.At, rec,
			"server %d probation at %v cuts its quarantine (until %v) short",
			e.Server, e.At, h.quarUntil)
	}
	h.quarantined = false
}

func (c *JobChecker) placementRetry(rec *obs.Record) {
	e := &rec.PlacementRetry
	if _, ok := c.jobs[e.Job]; !ok {
		c.violatef(InvPlacementRetry, e.At, rec, "placement retry for unsubmitted job %q", e.Job)
	}
	if e.Attempt < 1 {
		c.violatef(InvPlacementRetry, e.At, rec,
			"job %q placement retry attempt %d, want >= 1", e.Job, e.Attempt)
		return
	}
	if c.cfg.MaxPlacementRetries > 0 && e.Attempt > c.cfg.MaxPlacementRetries {
		c.violatef(InvPlacementRetry, e.At, rec,
			"job %q placement retry attempt %d exceeds the budget %d",
			e.Job, e.Attempt, c.cfg.MaxPlacementRetries)
	}
	if c.cfg.PlacementBackoff > 0 && e.Attempt <= 62 {
		if want := c.cfg.PlacementBackoff << (e.Attempt - 1); e.Backoff != want {
			c.violatef(InvPlacementRetry, e.At, rec,
				"job %q retry %d backs off %v, want %v (base %v doubled per attempt)",
				e.Job, e.Attempt, e.Backoff, want, c.cfg.PlacementBackoff)
		}
	}
}

func (c *JobChecker) admissionDegraded(rec *obs.Record) {
	e := &rec.AdmissionDegraded
	if e.Entered == c.degraded {
		if e.Entered {
			c.violate(InvAdmissionLegal, e.At, rec, "admission degraded twice without recovering")
		} else {
			c.violate(InvAdmissionLegal, e.At, rec, "admission recovery without being degraded")
		}
	}
	if c.cfg.DegradeEnter > 0 {
		if e.Entered && e.Faults < c.cfg.DegradeEnter {
			c.violatef(InvAdmissionLegal, e.At, rec,
				"admission degraded on %d windowed faults, threshold is %d",
				e.Faults, c.cfg.DegradeEnter)
		}
		if !e.Entered && e.Faults > c.cfg.DegradeExit {
			c.violatef(InvAdmissionLegal, e.At, rec,
				"admission recovered on %d windowed faults, above the exit threshold %d",
				e.Faults, c.cfg.DegradeExit)
		}
	}
	c.degraded = e.Entered
}

// poolTier parses an event's tier name, charging inv on failure.
func (c *JobChecker) poolTier(inv, tier string, at sim.Time, rec *obs.Record) (market.Tier, bool) {
	t, err := market.ParseTier(tier)
	if err != nil {
		c.violatef(inv, at, rec, "pool event carries unknown tier %q", tier)
		return 0, false
	}
	return t, true
}

// poolOpen verifies the admission decision against the overcommit bound
// and starts tracking the pool.
func (c *JobChecker) poolOpen(rec *obs.Record) {
	e := &rec.PoolOpen
	t, ok := c.poolTier(InvOvercommitBound, e.Tier, e.At, rec)
	if !ok {
		return
	}
	if _, dup := c.pools[e.Pool]; dup {
		c.violatef(InvOvercommitBound, e.At, rec, "pool %q opened twice", e.Pool)
		return
	}
	if e.Reserved < 1 || e.Size <= 0 {
		c.violatef(InvOvercommitBound, e.At, rec,
			"pool %q opened with reserved %d and size %v", e.Pool, e.Reserved, e.Size)
	}
	bound := market.BoundFor(c.cfg.Market.EffectiveOvercommit(), t, e.Forecast)
	if e.Bound != bound {
		c.violatef(InvOvercommitBound, e.At, rec,
			"pool %q admission reports bound %v, overcommit %v × %s factor × forecast %d gives %v",
			e.Pool, e.Bound, c.cfg.Market.EffectiveOvercommit(), t, e.Forecast, bound)
	}
	committed := c.poolCommitted[t] + e.Reserved
	if float64(committed) > bound {
		c.violatef(InvOvercommitBound, e.At, rec,
			"pool %q admitted with %d reserved %s cores committed, bound is %v",
			e.Pool, committed, t, bound)
	}
	if e.Committed != committed {
		c.violatef(InvOvercommitBound, e.At, rec,
			"pool %q admission reports %d committed %s cores, tracking gives %d",
			e.Pool, e.Committed, t, committed)
	}
	c.poolCommitted[t] = committed
	if c.pools == nil {
		c.pools = make(map[string]*poolState)
	}
	c.pools[e.Pool] = &poolState{
		tier: t, reserved: e.Reserved, size: e.Size, price: e.Price,
	}
}

// poolReject: a rejection must actually have exceeded the tier's bound.
func (c *JobChecker) poolReject(rec *obs.Record) {
	e := &rec.PoolReject
	t, ok := c.poolTier(InvOvercommitBound, e.Tier, e.At, rec)
	if !ok {
		return
	}
	bound := market.BoundFor(c.cfg.Market.EffectiveOvercommit(), t, e.Forecast)
	if e.Bound != bound {
		c.violatef(InvOvercommitBound, e.At, rec,
			"pool %q rejection reports bound %v, overcommit %v × %s factor × forecast %d gives %v",
			e.Pool, e.Bound, c.cfg.Market.EffectiveOvercommit(), t, e.Forecast, bound)
	}
	if float64(c.poolCommitted[t]+e.Reserved) <= bound {
		c.violatef(InvOvercommitBound, e.At, rec,
			"pool %q rejected though %d+%d reserved %s cores fit the bound %v",
			e.Pool, c.poolCommitted[t], e.Reserved, t, bound)
	}
	if e.Committed != c.poolCommitted[t] {
		c.violatef(InvOvercommitBound, e.At, rec,
			"pool %q rejection reports %d committed %s cores, tracking gives %d",
			e.Pool, e.Committed, t, c.poolCommitted[t])
	}
}

// poolGrant: placements are funded only by a known pool with a positive
// balance, and bind the job to it.
func (c *JobChecker) poolGrant(rec *obs.Record) {
	e := &rec.PoolGrant
	p, ok := c.pools[e.Pool]
	if !ok {
		c.violatef(InvPoolConservation, e.At, rec,
			"job %q granted against unknown pool %q", e.Job, e.Pool)
		return
	}
	if e.Tier != p.tier.String() {
		c.violatef(InvPoolConservation, e.At, rec,
			"job %q grant names tier %q, pool %q is %s", e.Job, e.Tier, e.Pool, p.tier)
	}
	if e.Balance <= 0 {
		c.violatef(InvPoolConservation, e.At, rec,
			"job %q granted from pool %q with non-positive balance %v", e.Job, e.Pool, e.Balance)
	}
	if e.Balance != p.balance {
		c.violatef(InvPoolConservation, e.At, rec,
			"job %q grant reports pool %q balance %v, tracking gives %v",
			e.Job, e.Pool, e.Balance, p.balance)
	}
	j, ok := c.jobs[e.Job]
	if !ok || j.phase != jobRunning {
		c.violatef(InvPoolConservation, e.At, rec,
			"pool grant for job %q, which is not running", e.Job)
		return
	}
	if c.jobPool == nil {
		c.jobPool = make(map[string]*poolState)
	}
	c.jobPool[e.Job] = p
}

// poolAccount: the conservation law itself.
func (c *JobChecker) poolAccount(rec *obs.Record) {
	e := &rec.PoolAccount
	p, ok := c.pools[e.Pool]
	if !ok {
		c.violatef(InvPoolConservation, e.At, rec, "accounting for unknown pool %q", e.Pool)
		return
	}
	if e.Refill < 0 || e.Drain < 0 {
		c.violatef(InvPoolConservation, e.At, rec,
			"pool %q tick with negative refill %v or drain %v", e.Pool, e.Refill, e.Drain)
	}
	if want := p.balance + e.Refill - e.Drain; e.Balance != want {
		c.violatef(InvPoolConservation, e.At, rec,
			"pool %q balance %v, previous %v + refill %v - drain %v gives %v",
			e.Pool, e.Balance, p.balance, e.Refill, e.Drain, want)
	}
	if e.Balance < 0 || e.Balance > p.size {
		c.violatef(InvPoolConservation, e.At, rec,
			"pool %q balance %v outside [0, size %v]", e.Pool, e.Balance, p.size)
	}
	p.balance = e.Balance
	p.consumed += e.Drain
}

// poolEvict: tier ordering for capacity evictions, and exact
// SLA-budget/penalty accounting.
func (c *JobChecker) poolEvict(rec *obs.Record) {
	e := &rec.PoolEvict
	p, ok := c.pools[e.Pool]
	if !ok {
		c.violatef(InvPenaltyAccounting, e.At, rec,
			"job %q pool-evicted from unknown pool %q", e.Job, e.Pool)
		return
	}
	switch e.Reason {
	case "capacity":
		// The victim must still be running here (its JobEvict follows);
		// ascending-tier order means no lower-tier job survives on the
		// same server while this one is preempted.
		if j, ok := c.jobs[e.Job]; ok && j.phase == jobRunning {
			var lower []string
			for name, q := range c.jobPool {
				if name == e.Job || q.tier >= p.tier {
					continue
				}
				if k, ok := c.jobs[name]; ok && k.phase == jobRunning && k.server == j.server {
					lower = append(lower, name)
				}
			}
			sort.Strings(lower)
			for _, name := range lower {
				c.violatef(InvTierOrdering, e.At, rec,
					"%s job %q evicted for capacity on server %d while %s job %q keeps running there",
					p.tier, e.Job, j.server, c.jobPool[name].tier, name)
			}
		}
		p.evictions++
		if e.Evictions != p.evictions {
			c.violatef(InvPenaltyAccounting, e.At, rec,
				"pool %q eviction count %d, want %d", e.Pool, e.Evictions, p.evictions)
		}
		budget := p.tier.Params().EvictionBudget
		wantViolation := budget >= 0 && p.evictions > budget
		if e.SLAViolation != wantViolation {
			c.violatef(InvPenaltyAccounting, e.At, rec,
				"pool %q eviction %d of %s budget %d marked violation=%t, want %t",
				e.Pool, p.evictions, p.tier, budget, e.SLAViolation, wantViolation)
		}
		var wantPenalty float64
		if wantViolation {
			p.violations++
			wantPenalty = p.tier.Params().PenaltyFactor * p.price
		}
		if e.Penalty != wantPenalty {
			c.violatef(InvPenaltyAccounting, e.At, rec,
				"pool %q eviction charges penalty %v, want %v (%s factor × price %v)",
				e.Pool, e.Penalty, wantPenalty, p.tier, p.price)
		}
		p.penalties += e.Penalty
	case "exhausted":
		if p.balance != 0 {
			c.violatef(InvPoolConservation, e.At, rec,
				"job %q evicted for pool %q exhaustion with balance %v", e.Job, e.Pool, p.balance)
		}
		if e.SLAViolation || e.Penalty != 0 {
			c.violatef(InvPenaltyAccounting, e.At, rec,
				"exhausted-balance eviction of job %q charged an SLA penalty (violation=%t, penalty=%v)",
				e.Job, e.SLAViolation, e.Penalty)
		}
		if e.Evictions != p.evictions {
			c.violatef(InvPenaltyAccounting, e.At, rec,
				"pool %q exhaustion eviction reports count %d, budget-charged count is %d",
				e.Pool, e.Evictions, p.evictions)
		}
	default:
		c.violatef(InvPenaltyAccounting, e.At, rec,
			"pool eviction of job %q with unknown reason %q", e.Job, e.Reason)
	}
}

// poolSettle: the final totals must match the event stream exactly.
func (c *JobChecker) poolSettle(rec *obs.Record) {
	e := &rec.PoolSettle
	p, ok := c.pools[e.Pool]
	if !ok {
		c.violatef(InvPenaltyAccounting, e.At, rec, "settlement of unknown pool %q", e.Pool)
		return
	}
	if p.settled {
		c.violatef(InvPenaltyAccounting, e.At, rec, "pool %q settled twice", e.Pool)
	}
	if e.Consumed != p.consumed {
		c.violatef(InvPoolConservation, e.At, rec,
			"pool %q settles %v consumed, accounted drains total %v", e.Pool, e.Consumed, p.consumed)
	}
	if want := p.consumed.Seconds() * p.price; e.Revenue != want {
		c.violatef(InvPenaltyAccounting, e.At, rec,
			"pool %q settles revenue %v, %v consumed at price %v gives %v",
			e.Pool, e.Revenue, p.consumed, p.price, want)
	}
	if e.Penalties != p.penalties {
		c.violatef(InvPenaltyAccounting, e.At, rec,
			"pool %q settles penalties %v, charged penalties total %v", e.Pool, e.Penalties, p.penalties)
	}
	if e.Evictions != p.evictions || e.Violations != p.violations {
		c.violatef(InvPenaltyAccounting, e.At, rec,
			"pool %q settles %d evictions / %d violations, tracking gives %d / %d",
			e.Pool, e.Evictions, e.Violations, p.evictions, p.violations)
	}
	p.settled = true
}

var _ obs.Observer = (*JobChecker)(nil)
