// Package obs is the tracing/observability layer of the SmartHarvest
// reproduction: a typed event stream emitted by the EVMAgent, the
// simulated hypervisor, the fleet scheduler, the capacity market and the
// experiment harness.
//
// The stream has two faces. Emitters call Observer, one typed method per
// event kind, so emitting is a struct copy and never a boxing allocation.
// Consumers implement Sink, a single Observe(*Record) over the
// kind-tagged union Record — the event envelope. Adapter is the one
// implementation of the former on top of the latter, Dispatch its
// inverse, and the descriptor table behind Schema the single owner of
// every kind's wire name, timestamp, trace fields and Observer method:
// the JSONL encoder, its inverse Decode, and Dispatch all read it.
//
// The design constraint is zero overhead when disabled: every emission
// site is guarded by a nil check on the observer, so a run without an
// observer performs no allocation and no interface call on the sim hot
// path (guarded by benchmarks in internal/sim and internal/core). With an
// observer attached, events are delivered synchronously on the simulation
// goroutine in deterministic order — a trace is a pure function of the
// scenario and seed, which is what makes the JSONL sink's byte-identity
// guarantee across parallelism settings possible (see internal/harness).
//
// Three stock sinks cover the common needs (the invariant checkers in
// internal/check are two more):
//
//   - Ring: a bounded in-memory buffer of recent events (flight recorder).
//   - JSONL: a streaming newline-delimited-JSON writer with a stable,
//     versioned schema (see SchemaVersion and DESIGN.md §6).
//   - Metrics: an aggregating sink that folds the stream into the
//     counters and latency summaries experiment reports use.
//
// Custom observers either embed NopObserver and override the methods
// they care about, or embed an Adapter and implement Observe; Multi fans
// one stream out to several observers.
package obs

import (
	"smartharvest/internal/grammar"
	"smartharvest/internal/sim"
)

// SchemaVersion is the version tag every JSONL trace line carries.
// Bump it when an event type gains, loses, or renames a field.
const SchemaVersion = 1

// ClampReason explains why the agent's in-force target differs from the
// controller's raw prediction (or that it does not).
type ClampReason uint8

const (
	// ClampNone: the prediction was applied as-is.
	ClampNone ClampReason = iota
	// ClampPaused: the long-term safeguard has harvesting paused, so the
	// target is pinned to the full primary allocation.
	ClampPaused
	// ClampBusyFloor: the prediction was raised to busy+1 (Algorithm 1
	// line 20 — never assign fewer cores than are busy right now).
	ClampBusyFloor
	// ClampAllocCap: the prediction exceeded the primary allocation and
	// was capped.
	ClampAllocCap
	// ClampDegraded: the resilience policy has degraded the agent to
	// NoHarvest behaviour, so the target is pinned to the full primary
	// allocation until probation clears.
	ClampDegraded
)

var clampNames = grammar.Enum[ClampReason]{Unknown: "unknown",
	Names: []string{"none", "paused", "busy-floor", "alloc-cap", "degraded"}}

func (c ClampReason) String() string { return clampNames.String(c) }

// Features are the per-window summary statistics of the busy-core
// samples, in cores: the five quantities the paper's learner consumes, as
// learner.FeatureExtractor computes them (Median is the lower median, Std
// the population deviation), so a recorded window replays through the
// learner exactly.
type Features struct {
	Min    int
	Max    int
	Avg    float64
	Std    float64
	Median float64
}

// PollSample is one busy-poll reading (the agent's inner loop; fires
// every PollInterval, 50 µs by default — the hottest event by far).
type PollSample struct {
	At     sim.Time
	Busy   int // busy primary cores at the poll instant
	Target int // primary-core assignment in force
}

// WindowEnd is one learning-window decision: the window's features, the
// controller's raw prediction, and the clamped target that was applied.
type WindowEnd struct {
	At         sim.Time
	Seq        uint64 // 1-based window index within the run
	Samples    int    // busy-core readings collected this window
	Features   Features
	Peak1s     int  // trailing-second peak (conservative safeguard input)
	Busy       int  // busy reading at the decision instant
	Safeguard  bool // window was cut short by the short-term safeguard
	Prediction int  // controller's raw output
	Target     int  // clamped target actually applied
	Clamp      ClampReason
}

// SafeguardTrip fires when the short-term safeguard cuts a window short
// because the primaries exhausted their assignment.
type SafeguardTrip struct {
	At     sim.Time
	Busy   int
	Target int // assignment that was exhausted
}

// QoSTrip fires when the long-term safeguard disables harvesting.
type QoSTrip struct {
	At         sim.Time
	Frac       float64  // violating fraction of dispatch waits
	Waits      int      // wait samples in the QoS window
	PauseUntil sim.Time // when harvesting may resume
}

// QoSResume fires at the first QoS check after a harvest pause expires.
type QoSResume struct {
	At sim.Time
}

// Resize is one core-reassignment request issued to the hypervisor.
type Resize struct {
	At        sim.Time
	FromCores int // primary-group size before (including in-flight moves)
	ToCores   int // requested primary-group size
	Mechanism string
	Latency   sim.Time // hypercall issue latency the caller is blocked for
}

// ChurnApplied fires when a scheduled primary-VM arrival/departure has
// been applied and the agent re-targeted.
type ChurnApplied struct {
	At            sim.Time
	Arrived       string // workload name, "" if the event had no arrival
	Departed      int    // departed primary index, -1 if none
	LivePrimaries int    // primary VMs alive after the event
	PrimaryAlloc  int    // agent's primary allocation after the event
}

// BatchProgress fires at every phase boundary of a finite batch job
// (HDInsight, TeraSort), and once more with Finished set.
type BatchProgress struct {
	At       sim.Time
	Job      string
	Phase    int // 0-based phase that just started; == Phases when finished
	Phases   int
	Finished bool
}

// FaultKind identifies the injected fault class carried by a
// FaultInjected event (see internal/faults for the injector).
type FaultKind uint8

const (
	// FaultHypercallFail: a SetPrimaryCores hypercall transiently failed.
	FaultHypercallFail FaultKind = iota
	// FaultHypercallDelay: a hypercall succeeded but with a latency spike.
	FaultHypercallDelay
	// FaultPollDrop: a busy-core poll returned no reading.
	FaultPollDrop
	// FaultPollStale: a busy-core poll returned the previous reading.
	FaultPollStale
	// FaultPollNoise: a busy-core poll returned a perturbed reading.
	FaultPollNoise
	// FaultAgentStall: the agent stalled, missing whole learning windows.
	FaultAgentStall
	// FaultAgentCrash: the agent crashed and restarted, rebuilding its
	// state from a checkpoint (or from scratch).
	FaultAgentCrash
	// FaultServerCrash: a whole server went down, killing its agent and
	// every job placed on it (fleet-level; see faults.FleetInjector).
	FaultServerCrash
	// FaultGrantDrop: a placement grant was lost on the scheduler→server
	// control path; the scheduler notices only by timeout.
	FaultGrantDrop
	// FaultGrantDelay: a placement grant arrived late at the server.
	FaultGrantDelay
	// FaultReadStale: a scheduler capacity read (harvested or forecast
	// cores) returned the previously observed value instead of the
	// current one.
	FaultReadStale
	// FaultReconcileLoss: one server's reconcile message to the scheduler
	// was lost; that server is skipped for the round and its view ages.
	FaultReconcileLoss
)

var faultNames = grammar.Enum[FaultKind]{Unknown: "unknown", Names: []string{
	"hypercall-fail", "hypercall-delay", "poll-drop", "poll-stale",
	"poll-noise", "agent-stall", "agent-crash",
	"server-crash", "grant-drop", "grant-delay", "read-stale",
	"reconcile-loss",
}}

func (k FaultKind) String() string { return faultNames.String(k) }

// DegradeReason explains what drove the agent into degraded mode.
type DegradeReason uint8

const (
	// DegradeResizeFailures: K consecutive resize attempts exhausted
	// their retries.
	DegradeResizeFailures DegradeReason = iota
	// DegradeMissedPolls: M busy-core polls were lost within one
	// learning window.
	DegradeMissedPolls
)

var degradeNames = grammar.Enum[DegradeReason]{Unknown: "unknown", Names: []string{"resize-failures", "missed-polls"}}

func (r DegradeReason) String() string { return degradeNames.String(r) }

// FaultInjected fires for every fault the injector delivers.
type FaultInjected struct {
	At   sim.Time
	Kind FaultKind
	// Dur is the induced delay for latency-spike/stall/restart faults;
	// zero for instantaneous faults.
	Dur sim.Time
	// Delta is the signal perturbation for poll-noise faults (+/- cores);
	// zero otherwise.
	Delta int
}

// ResizeRetry fires when the agent re-issues a failed resize after a
// backoff.
type ResizeRetry struct {
	At     sim.Time
	Target int // primary-core target being retried
	// Attempt is the 1-based retry number (1 = first re-issue).
	Attempt int
	// Backoff is the delay applied before this retry.
	Backoff sim.Time
}

// DegradedEnter fires when the resilience policy gives up on harvesting
// and pins the target to the full primary allocation.
type DegradedEnter struct {
	At     sim.Time
	Reason DegradeReason
	// Failures is the consecutive exhausted-resize count at entry.
	Failures int
	// MissedPolls is the lost-poll count in the current window at entry.
	MissedPolls int
}

// DegradedExit fires when a clean probation period has elapsed and the
// agent re-enters harvesting.
type DegradedExit struct {
	At sim.Time
	// CleanFor is how long the run stayed fault-free before re-entry
	// (>= the configured probation).
	CleanFor sim.Time
	// Dur is the total time spent degraded.
	Dur sim.Time
}

// JobSubmit fires when a batch job enters the fleet scheduler's queue
// (see internal/sched).
type JobSubmit struct {
	At   sim.Time
	Job  string
	Work sim.Time // total CPU work the job needs, in core-time
	// Width is the job's maximum useful parallelism in cores.
	Width int
	// Deadline is the job's absolute SLO deadline; zero means no SLO.
	Deadline sim.Time
}

// JobStart fires when the scheduler places a job (or a requeued
// remainder of one) onto a server's harvested capacity.
type JobStart struct {
	At     sim.Time
	Job    string
	Server int
	// Grant is the number of harvested cores committed to the job.
	Grant int
	// Harvest is the server's harvested-core count at placement time.
	Harvest int
	// Attempt is the 1-based placement attempt (evictions so far + 1).
	Attempt int
	// Remaining is the CPU work still owed after checkpointed progress.
	Remaining sim.Time
}

// JobEvict fires when a server's harvest collapses under a running job
// and the scheduler preempts it.
type JobEvict struct {
	At     sim.Time
	Job    string
	Server int
	// Progress is the job's cumulative checkpointed CPU work, including
	// work salvaged from this placement.
	Progress sim.Time
	// Evictions is the job's total eviction count including this one.
	Evictions int
	// Final marks an eviction that exhausts the requeue budget; the job
	// is abandoned rather than requeued.
	Final bool
}

// JobRequeue fires when an evicted job re-enters the pending queue.
type JobRequeue struct {
	At        sim.Time
	Job       string
	Evictions int
	// Remaining is the CPU work still owed (Work - checkpointed progress).
	Remaining sim.Time
}

// JobComplete fires when a job finishes its full work allotment.
type JobComplete struct {
	At     sim.Time
	Job    string
	Server int
	// Elapsed is the job's completion time (finish - submit).
	Elapsed   sim.Time
	Evictions int
}

// JobSLOMiss fires when a deadline-bearing job completes after its
// deadline, or is abandoned/unfinished with the deadline already past.
type JobSLOMiss struct {
	At       sim.Time
	Job      string
	Deadline sim.Time
	// Late is how far past the deadline the job finished (or the run
	// ended, for jobs that never finished).
	Late sim.Time
}

// ServerCrash fires when a whole fleet server goes down: its agent dies
// and every job VM placed on its harvested capacity is killed. The
// tenant (primary) VMs are deliberately spared — the crash models the
// harvesting stack failing, with the paper's safety asymmetry preserved.
type ServerCrash struct {
	At     sim.Time
	Server int
	// Down is how long the server stays down before restarting.
	Down sim.Time
}

// ServerRestart fires when a crashed server comes back: the agent
// restarts (rebuilding learner state from its checkpoint) and the
// server's harvested capacity becomes placeable again.
type ServerRestart struct {
	At     sim.Time
	Server int
	// Down is how long the server was down.
	Down sim.Time
}

// ServerQuarantine fires when the scheduler stops placing work on a
// server, either because it crashed or because consecutive placement
// failures crossed the health threshold.
type ServerQuarantine struct {
	At     sim.Time
	Server int
	// Failures is the consecutive placement-failure count at entry
	// (zero for crash-triggered quarantines).
	Failures int
	// Crash marks a quarantine triggered by a server crash rather than
	// by accumulated placement failures.
	Crash bool
	// Until is when the quarantine lapses into probation.
	Until sim.Time
}

// ServerProbation fires when a quarantined server re-enters service on
// probation: placements resume, but one more failure before Until
// re-quarantines it (with a longer sentence — flap damping).
type ServerProbation struct {
	At     sim.Time
	Server int
	// Until is when a clean probation ends and the server is healthy.
	Until sim.Time
}

// PlacementRetry fires when the scheduler re-issues a placement that
// timed out (a dropped or unacknowledged grant), after a bounded
// exponential backoff.
type PlacementRetry struct {
	At  sim.Time
	Job string
	// Server is the server the failed attempt targeted.
	Server int
	// Attempt is the 1-based retry number (1 = first re-issue).
	Attempt int
	// Backoff is the delay applied before this retry.
	Backoff sim.Time
}

// AdmissionDegraded fires when the scheduler changes admission posture:
// Entered=true means the observed fault rate spiked and admission
// shrank (conservative first-fit, throttled placements); Entered=false
// means the fault rate subsided and normal admission resumed.
type AdmissionDegraded struct {
	At sim.Time
	// Entered is true on degradation, false on recovery.
	Entered bool
	// Faults is the fault count observed within the trailing window at
	// the transition.
	Faults int
	// Window is the observation window the count applies to.
	Window sim.Time
}

// PredictorInfo fires once at run start when the scenario selects a
// non-default predictor, recording which predictor identity produced the
// trace (default CSOAA runs emit nothing, keeping their traces
// byte-identical to pre-predictor-API builds).
type PredictorInfo struct {
	At sim.Time
	// Name is the predictor's zoo name ("ewma", "periodic", ...).
	Name string
	// Classes is the predictor's class count (max allocation + 1).
	Classes int
}

// PoolOpen fires when the harvested-capacity market admits a pool:
// its reserved cores fit under the tier's overcommit bound at the
// fleet-wide forecast observed at open time (see internal/market).
type PoolOpen struct {
	At   sim.Time
	Pool string
	// Tier is the pool's eviction-SLA tier name (market.Tier's String).
	Tier string
	// Reserved is the pool's harvested-core reservation.
	Reserved int
	// Size is the pool's balance capacity in core-time.
	Size sim.Time
	// Price is the pool's revenue per core-second consumed.
	Price float64
	// Forecast is the fleet-wide forecast (sum of per-server
	// ForecastCores) the admission bound was computed from.
	Forecast int
	// Bound is the tier's reserved-core admission bound at Forecast.
	Bound float64
	// Committed is the tier's admitted reserved-core total including
	// this pool.
	Committed int
}

// PoolReject fires when the market refuses a pool because admitting it
// would push the tier's committed reservations past the overcommit
// bound.
type PoolReject struct {
	At       sim.Time
	Pool     string
	Tier     string
	Reserved int
	Forecast int
	Bound    float64
	// Committed is the tier's admitted reserved-core total excluding
	// the rejected pool.
	Committed int
}

// PoolGrant fires right after a JobStart when the market is active,
// binding the placed job to the pool whose balance funded it.
type PoolGrant struct {
	At   sim.Time
	Job  string
	Pool string
	Tier string
	// Balance is the pool's remaining core-time at grant; placements
	// are only legal against a positive balance.
	Balance sim.Time
}

// PoolAccount fires once per pool per reconcile tick in which the
// pool's balance moved: Balance = previous balance + Refill - Drain.
type PoolAccount struct {
	At   sim.Time
	Pool string
	// Refill is the core-time added from the fleet harvest this tick,
	// already capped at the pool's size.
	Refill sim.Time
	// Drain is the core-time consumed by member jobs this tick.
	Drain sim.Time
	// Balance is the pool's core-time after the tick.
	Balance sim.Time
}

// PoolEvict fires immediately before the JobEvict of a market-member
// job: Reason "capacity" is a harvest-collapse preemption charged
// against the pool's tier budget (SLAViolation and Penalty accrue past
// it); Reason "exhausted" is the pool's own balance running dry —
// customer exposure, never an SLA event.
type PoolEvict struct {
	At     sim.Time
	Job    string
	Pool   string
	Tier   string
	Reason string
	// Evictions is the pool's budget-charged eviction count including
	// this event for "capacity" (unchanged for "exhausted").
	Evictions    int
	SLAViolation bool
	Penalty      float64
}

// PoolSettle fires once per admitted pool at run end with the final
// accounting: Revenue = Consumed core-seconds × price, and the
// eviction/violation tallies the SLA report is built from.
type PoolSettle struct {
	At         sim.Time
	Pool       string
	Consumed   sim.Time
	Revenue    float64
	Penalties  float64
	Evictions  int
	Violations int
}

// Observer is what emitters call: one typed method per event kind. All
// methods are invoked synchronously on the simulation goroutine; events
// are passed by value and hold no reference types besides strings.
//
// Embed NopObserver to implement only the events you care about, or
// embed an Adapter to receive every event through one Observe(*Record).
type Observer interface {
	OnPollSample(PollSample)
	OnWindowEnd(WindowEnd)
	OnSafeguardTrip(SafeguardTrip)
	OnQoSTrip(QoSTrip)
	OnQoSResume(QoSResume)
	OnResize(Resize)
	OnChurnApplied(ChurnApplied)
	OnBatchProgress(BatchProgress)
	OnFaultInjected(FaultInjected)
	OnResizeRetry(ResizeRetry)
	OnDegradedEnter(DegradedEnter)
	OnDegradedExit(DegradedExit)
	OnJobSubmit(JobSubmit)
	OnJobStart(JobStart)
	OnJobEvict(JobEvict)
	OnJobRequeue(JobRequeue)
	OnJobComplete(JobComplete)
	OnJobSLOMiss(JobSLOMiss)
	OnServerCrash(ServerCrash)
	OnServerRestart(ServerRestart)
	OnServerQuarantine(ServerQuarantine)
	OnServerProbation(ServerProbation)
	OnPlacementRetry(PlacementRetry)
	OnAdmissionDegraded(AdmissionDegraded)
	OnPredictorInfo(PredictorInfo)
	OnPoolOpen(PoolOpen)
	OnPoolReject(PoolReject)
	OnPoolGrant(PoolGrant)
	OnPoolAccount(PoolAccount)
	OnPoolEvict(PoolEvict)
	OnPoolSettle(PoolSettle)
}

// NopObserver implements Observer with no-ops; embed it to build partial
// observers.
type NopObserver struct{}

func (NopObserver) OnPollSample(PollSample)               {}
func (NopObserver) OnWindowEnd(WindowEnd)                 {}
func (NopObserver) OnSafeguardTrip(SafeguardTrip)         {}
func (NopObserver) OnQoSTrip(QoSTrip)                     {}
func (NopObserver) OnQoSResume(QoSResume)                 {}
func (NopObserver) OnResize(Resize)                       {}
func (NopObserver) OnChurnApplied(ChurnApplied)           {}
func (NopObserver) OnBatchProgress(BatchProgress)         {}
func (NopObserver) OnFaultInjected(FaultInjected)         {}
func (NopObserver) OnResizeRetry(ResizeRetry)             {}
func (NopObserver) OnDegradedEnter(DegradedEnter)         {}
func (NopObserver) OnDegradedExit(DegradedExit)           {}
func (NopObserver) OnJobSubmit(JobSubmit)                 {}
func (NopObserver) OnJobStart(JobStart)                   {}
func (NopObserver) OnJobEvict(JobEvict)                   {}
func (NopObserver) OnJobRequeue(JobRequeue)               {}
func (NopObserver) OnJobComplete(JobComplete)             {}
func (NopObserver) OnJobSLOMiss(JobSLOMiss)               {}
func (NopObserver) OnServerCrash(ServerCrash)             {}
func (NopObserver) OnServerRestart(ServerRestart)         {}
func (NopObserver) OnServerQuarantine(ServerQuarantine)   {}
func (NopObserver) OnServerProbation(ServerProbation)     {}
func (NopObserver) OnPlacementRetry(PlacementRetry)       {}
func (NopObserver) OnAdmissionDegraded(AdmissionDegraded) {}
func (NopObserver) OnPredictorInfo(PredictorInfo)         {}
func (NopObserver) OnPoolOpen(PoolOpen)                   {}
func (NopObserver) OnPoolReject(PoolReject)               {}
func (NopObserver) OnPoolGrant(PoolGrant)                 {}
func (NopObserver) OnPoolAccount(PoolAccount)             {}
func (NopObserver) OnPoolEvict(PoolEvict)                 {}
func (NopObserver) OnPoolSettle(PoolSettle)               {}

// Sink is the one-method form of an observer: every event arrives as a
// kind-tagged Record. The stock sinks, Multi and the invariant checkers
// implement only Observe — a switch over the kinds they care about —
// and embed an Adapter to be Observers. The Record is only valid for
// the duration of the call: copy it to keep it.
type Sink interface {
	Observe(*Record)
}

// multi fans events out to several sinks in order.
type multi struct {
	Adapter
	sinks []Sink
}

// dispatcher makes a Sink of an observer that is not one.
type dispatcher struct{ o Observer }

func (d dispatcher) Observe(r *Record) { Dispatch(d.o, r) }

// Multi returns an observer that forwards every event to each of the
// given observers, in argument order. Nil entries are skipped; a single
// non-nil observer is returned unwrapped. Observers that are Sinks share
// one Record per event; the rest are reached through Dispatch.
func Multi(observers ...Observer) Observer {
	var live []Observer
	for _, o := range observers {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	m := &multi{sinks: make([]Sink, len(live))}
	m.Sink = m
	for i, o := range live {
		if s, ok := o.(Sink); ok {
			m.sinks[i] = s
		} else {
			m.sinks[i] = dispatcher{o}
		}
	}
	return m
}

func (m *multi) Observe(r *Record) {
	for _, s := range m.sinks {
		s.Observe(r)
	}
}
