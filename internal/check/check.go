// Package check is the invariant-checking verifier of the SmartHarvest
// reproduction: a Checker is an obs.Sink (and, by embedding obs.Adapter,
// an obs.Observer) that validates, online, every event stream it observes
// against the safety contract the paper's agent is supposed to maintain
// (§3 safeguards, §4 predictor):
//
//   - core conservation: resize requests chain (each FromCores equals the
//     previous ToCores), never exceed the primary allocation, and always
//     leave the ElasticVM its guaranteed minimum, so primary + harvested +
//     buffer cores sum to the machine total at every resize;
//   - monotonically non-decreasing sim time across all events;
//   - safeguard state-machine legality: short-term expansions fire only
//     from harvesting states (busy >= target, target < alloc), each trip is
//     immediately followed by its safeguard window decision, the long-term
//     pause lasts exactly Config.HarvestPause of sim time, and no harvest
//     activity occurs while paused;
//   - prediction/clamp consistency: every window decision's applied target
//     equals min(max(prediction, busy+1), alloc) — equivalently, the
//     harvest equals total − max(prediction, busy+1) — with the clamp
//     reason reported truthfully;
//   - stream shape: 1-based gap-free window sequence numbers, sane feature
//     statistics, legal churn and batch-progress accounting.
//
// JSONL trace well-formedness (schema version, required fields, event
// ordering) is checked separately by ValidateTrace (trace.go).
//
// Violations accumulate into a structured Report carrying the first
// failing event and its surrounding ring-buffer context (the most recent
// events before the failure). Attach a Checker with Scenario.Checker; the
// harness binds it to the resolved scenario and the Result carries the
// Report. When no checker is attached nothing in the hot loops changes —
// the observer nil checks keep disabled runs at zero allocations (guarded
// by the benchmarks in internal/sim and internal/core).
package check

import (
	"fmt"
	"strings"

	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// Invariant identifiers, stable strings suitable for asserting in tests
// (the mutant gallery keys on them) and for grepping reports.
const (
	// InvTimeMonotonic: event timestamps never decrease.
	InvTimeMonotonic = "time-monotonic"
	// InvConservation: a resize keeps primary + elastic == total, leaves
	// the ElasticVM its minimum, and never exceeds the primary allocation.
	InvConservation = "core-conservation"
	// InvResizeChain: each resize starts from the previous logical size.
	InvResizeChain = "resize-chain"
	// InvSafeguard: short-term safeguard trips are legal and paired with
	// their window decision.
	InvSafeguard = "safeguard-legality"
	// InvPauseDuration: a long-term pause lasts exactly HarvestPause.
	InvPauseDuration = "pause-duration"
	// InvPausedHarvest: no harvest activity while harvesting is paused.
	InvPausedHarvest = "paused-harvest"
	// InvClamp: target == min(max(prediction, busy+1), alloc), with the
	// clamp reason reported truthfully.
	InvClamp = "clamp-consistency"
	// InvWindowSeq: window sequence numbers are 1-based and gap-free.
	InvWindowSeq = "window-sequence"
	// InvWindowShape: per-window statistics are internally consistent.
	InvWindowShape = "window-shape"
	// InvChurn: churn events keep allocation accounting coherent.
	InvChurn = "churn-accounting"
	// InvQoS: long-term safeguard state transitions are legal.
	InvQoS = "qos-state"
	// InvBatch: batch progress is monotone and finishes at most once.
	InvBatch = "batch-progress"
	// InvMachineState: the hypervisor's end-of-run self-check failed
	// (reported via Flag by the harness).
	InvMachineState = "machine-state"
	// InvUsage: the checker itself was misused (events before Bind).
	InvUsage = "checker-usage"
	// InvDegraded: degraded mode behaves like NoHarvest — window decisions
	// pin the target to the allocation with ClampDegraded, no short-term
	// safeguard trips fire, and resizes only move the split toward the
	// allocation; enters and exits pair up.
	InvDegraded = "degraded-legality"
	// InvProbation: a degraded exit happens only after a clean probation
	// period since the last agent-visible fault, with CleanFor exact.
	InvProbation = "probation-timing"
	// InvRetry: resize retries are bounded by MaxRetries and back off
	// exponentially from RetryBackoff.
	InvRetry = "retry-backoff"
)

// ContextSize is how many recent events the checker's flight recorder
// keeps; Report.Context holds at most this many records ending at the
// first violation.
const ContextSize = 64

// maxViolations bounds the violations kept in a report; a systematically
// broken run would otherwise accumulate one per window. Overflow is
// counted in Report.Dropped.
const maxViolations = 100

// Config binds a Checker to the facts of one run that the event stream
// itself does not carry. harness.Run fills it from the resolved Scenario.
type Config struct {
	// TotalCores is the machine pool size (max primary allocation plus
	// the elastic minimum).
	TotalCores int
	// PrimaryAlloc is the initial primary allocation (cores sold to the
	// primary VMs); churn events update it during the run.
	PrimaryAlloc int
	// PrimaryVMCores is the per-VM allocation, used to cross-check churn
	// accounting. Zero skips that check.
	PrimaryVMCores int
	// ElasticMin is the ElasticVM's guaranteed minimum core count.
	ElasticMin int
	// HarvestPause is the exact long-term pause length. Zero skips the
	// exact-duration check.
	HarvestPause sim.Time
	// QoSViolationFrac is the trip threshold; a trip reporting a smaller
	// violating fraction is illegal. Zero skips the check.
	QoSViolationFrac float64
	// LongTermSafeguard reports whether the run may legally emit QoS
	// trips at all.
	LongTermSafeguard bool
	// MaxRetries bounds resize retry attempts. Zero skips the bound check.
	MaxRetries int
	// RetryBackoff is the first retry delay; attempt n must back off
	// RetryBackoff << (n-1). Zero skips the exact-backoff check.
	RetryBackoff sim.Time
	// Probation is the exact clean period a degraded agent must observe
	// before re-entering harvesting. Zero skips the probation checks.
	Probation sim.Time
}

func (c Config) validate() error {
	if c.TotalCores < 1 {
		return fmt.Errorf("check: TotalCores %d < 1", c.TotalCores)
	}
	if c.ElasticMin < 0 || c.PrimaryVMCores < 0 {
		return fmt.Errorf("check: negative ElasticMin or PrimaryVMCores")
	}
	if c.PrimaryAlloc < 1 || c.PrimaryAlloc+c.ElasticMin > c.TotalCores {
		return fmt.Errorf("check: PrimaryAlloc %d outside [1, %d]",
			c.PrimaryAlloc, c.TotalCores-c.ElasticMin)
	}
	if c.HarvestPause < 0 || c.QoSViolationFrac < 0 || c.QoSViolationFrac > 1 {
		return fmt.Errorf("check: bad HarvestPause/QoSViolationFrac")
	}
	if c.MaxRetries < 0 || c.RetryBackoff < 0 || c.Probation < 0 {
		return fmt.Errorf("check: bad MaxRetries/RetryBackoff/Probation")
	}
	return nil
}

// Violation is one observed invariant breach.
type Violation struct {
	// Invariant is the stable identifier (one of the Inv* constants).
	Invariant string
	// At is the sim time of the offending event.
	At sim.Time
	// Event is the offending event (Kind selects the populated field);
	// meaningful only when HasEvent is set.
	Event obs.Record
	// HasEvent is false for a violation no event gave rise to, such as
	// one reported through Flag.
	HasEvent bool
	// Detail explains what was expected versus observed.
	Detail string
}

func (v Violation) String() string {
	if !v.HasEvent {
		return fmt.Sprintf("[%s] t=%v: %s", v.Invariant, v.At, v.Detail)
	}
	return fmt.Sprintf("[%s] t=%v %s: %s", v.Invariant, v.At, v.Event.Kind, v.Detail)
}

// Report is the outcome of one checked run.
type Report struct {
	// Events is how many events the checker observed.
	Events uint64
	// Violations holds the breaches in observation order, capped at
	// maxViolations; Dropped counts the overflow.
	Violations []Violation
	// Dropped counts violations beyond the report cap.
	Dropped int
	// Context is the flight-recorder contents at the first violation:
	// the most recent events, oldest first, ending with the offender.
	Context []obs.Record
}

// OK reports whether the run passed every invariant.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// First returns the first violation, or a zero Violation when OK.
func (r *Report) First() Violation {
	if len(r.Violations) == 0 {
		return Violation{}
	}
	return r.Violations[0]
}

// Err returns nil when the run passed, or an error summarizing the
// violations (first one spelled out).
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("check: %d invariant violation(s) in %d events; first: %s",
		len(r.Violations)+r.Dropped, r.Events, r.Violations[0])
}

// String renders the report: a summary line, every kept violation, and
// the event context around the first failure.
func (r *Report) String() string {
	var b strings.Builder
	if r.OK() {
		fmt.Fprintf(&b, "check: ok (%d events, 0 violations)\n", r.Events)
		return b.String()
	}
	fmt.Fprintf(&b, "check: %d violation(s) in %d events\n", len(r.Violations)+r.Dropped, r.Events)
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if r.Dropped > 0 {
		fmt.Fprintf(&b, "  ... and %d more (dropped)\n", r.Dropped)
	}
	if len(r.Context) > 0 {
		fmt.Fprintf(&b, "context (last %d events before first violation):\n", len(r.Context))
		for i := range r.Context {
			rec := &r.Context[i]
			fmt.Fprintf(&b, "  t=%v %s\n", rec.At(), rec.Kind)
		}
	}
	return b.String()
}

// recorder is the plumbing Checker and JobChecker share: the Adapter
// that makes them obs.Observers, the flight recorder, the event count,
// the Bind-before-use and time-monotonic checks, and violation capture.
type recorder struct {
	obs.Adapter
	ring  *obs.Ring // flight recorder feeding Report.Context
	bound bool

	lastAt   sim.Time
	seenTime bool

	report Report
}

func (rc *recorder) init(owner obs.Sink) {
	rc.Sink = owner
	rc.ring = obs.NewRing(ContextSize)
}

// begin counts rec into the report and the flight recorder and returns
// whether the checker is bound; the first event before Bind is flagged.
func (rc *recorder) begin(rec *obs.Record, at sim.Time) bool {
	rc.ring.Observe(rec)
	rc.report.Events++
	if !rc.bound && rc.report.Events == 1 { // flag once, not per event
		rc.violate(InvUsage, at, rec, "event observed before Bind; checks are unreliable")
	}
	return rc.bound
}

// checkTime flags an event stamped earlier than one already observed.
func (rc *recorder) checkTime(rec *obs.Record, at sim.Time) {
	if rc.seenTime && at < rc.lastAt {
		rc.violatef(InvTimeMonotonic, at, rec,
			"event time %v precedes previous event time %v", at, rc.lastAt)
	}
	if at > rc.lastAt {
		rc.lastAt = at
	}
	rc.seenTime = true
}

// admit captures the flight recorder when the first violation arrives
// and reports whether the report has room for one more.
func (rc *recorder) admit() bool {
	if len(rc.report.Violations) == 0 {
		rc.report.Context = rc.ring.Records()
	}
	if len(rc.report.Violations) >= maxViolations {
		rc.report.Dropped++
		return false
	}
	return true
}

// violate records a breach by the event rec, or by no event when rec is
// nil. rec is copied only if the violation is kept.
func (rc *recorder) violate(invariant string, at sim.Time, rec *obs.Record, detail string) {
	if !rc.admit() {
		return
	}
	v := Violation{Invariant: invariant, At: at, Detail: detail}
	if rec != nil {
		v.Event, v.HasEvent = *rec, true
	}
	rc.report.Violations = append(rc.report.Violations, v)
}

func (rc *recorder) violatef(invariant string, at sim.Time, rec *obs.Record, format string, args ...any) {
	rc.violate(invariant, at, rec, fmt.Sprintf(format, args...))
}

// Checker validates an event stream online. Create with New, bind to the
// run's facts with Bind (harness.Run does this for Scenario.Checker), let
// it observe, then read Finish or Report. A Checker verifies exactly one
// run; it is not safe for concurrent use (events arrive synchronously on
// the sim goroutine, like any observer).
type Checker struct {
	recorder
	cfg Config

	alloc   int // current primary allocation (follows churn)
	primary int // logical primary-group size (follows resizes)

	pausedUntil sim.Time
	resumeOwed  bool

	lastSeq uint64

	// pendingTrip, when set, demands the next event be this trip's
	// safeguard window decision.
	pendingTrip    obs.SafeguardTrip
	hasPendingTrip bool

	// pendingPausedResize defers judgment on a shrink issued while paused:
	// it is legal only if a churn departure at the same instant explains
	// it (the agent shrinks before the ChurnApplied event is emitted).
	pendingPausedResize    Violation
	hasPendingPausedResize bool

	batchFinished bool
	lastPhase     int

	// Degradation-ladder state: degraded mirrors the agent's mode, and
	// lastVisibleFault tracks the probation anchor — the latest instant an
	// agent-visible fault ended (hypercall failures and dropped polls land
	// at their event time; stalls and crashes at event time plus duration;
	// delay/stale/noise faults are invisible to the agent and don't count).
	degraded         bool
	degradedAt       sim.Time
	lastVisibleFault sim.Time
	sawVisibleFault  bool

	finished bool
}

// New returns an unbound Checker. Bind must be called before events
// arrive; harness.Run binds Scenario.Checker automatically.
func New() *Checker {
	c := &Checker{lastPhase: -1}
	c.init(c)
	return c
}

// Bind attaches the run's configuration. It must be called exactly once,
// before any event; binding twice (e.g. reusing one Checker across two
// scenarios) is an error.
func (c *Checker) Bind(cfg Config) error {
	if c.bound {
		return fmt.Errorf("check: Checker already bound (one Checker verifies one run)")
	}
	if err := cfg.validate(); err != nil {
		return err
	}
	c.cfg = cfg
	c.alloc = cfg.PrimaryAlloc
	c.primary = cfg.PrimaryAlloc
	c.bound = true
	return nil
}

// Flag records an externally detected violation, such as the hypervisor's
// end-of-run state check, into the report.
func (c *Checker) Flag(invariant string, at sim.Time, detail string) {
	c.violate(invariant, at, nil, detail)
}

// Finish commits deferred judgments and returns the report. The harness
// calls it when the run ends; calling it again returns the same report.
func (c *Checker) Finish() *Report {
	if c.finished {
		return &c.report
	}
	c.finished = true
	if c.hasPendingPausedResize {
		c.commitPendingPausedResize()
	}
	if c.hasPendingTrip {
		c.violate(InvSafeguard, c.pendingTrip.At,
			&obs.Record{Kind: obs.KindSafeguardTrip, SafeguardTrip: c.pendingTrip},
			"safeguard trip with no window decision following it")
		c.hasPendingTrip = false
	}
	return &c.report
}

// Report returns the accumulated report, finishing the checker if needed.
func (c *Checker) Report() *Report { return c.Finish() }

func (c *Checker) commitPendingPausedResize() {
	c.hasPendingPausedResize = false
	if c.admit() {
		c.report.Violations = append(c.report.Violations, c.pendingPausedResize)
	}
}

// paused reports whether harvesting is paused at time t (the pause
// expires implicitly when the clock reaches pausedUntil, mirroring
// Agent.HarvestingPaused).
func (c *Checker) paused(t sim.Time) bool { return t < c.pausedUntil }

// Observe implements obs.Sink. The checks every event shares — usage,
// deferred judgments, time monotonicity — run first, then the kind's own
// handler; kinds without one (the job, fleet and market events, whose
// invariants JobChecker owns, and predictor identity) only feed the
// flight recorder and the shared checks.
func (c *Checker) Observe(rec *obs.Record) {
	at := rec.At()
	if !c.begin(rec, at) {
		return
	}
	if c.hasPendingPausedResize {
		// A churn departure at the same instant legitimizes the shrink.
		if rec.Kind == obs.KindChurnApplied &&
			rec.ChurnApplied.At == c.pendingPausedResize.At &&
			rec.ChurnApplied.PrimaryAlloc == c.pendingPausedResize.Event.Resize.ToCores {
			c.hasPendingPausedResize = false
		} else {
			c.commitPendingPausedResize()
		}
	}
	if c.hasPendingTrip && rec.Kind != obs.KindWindowEnd {
		c.violate(InvSafeguard, at, rec,
			"safeguard trip not immediately followed by its window decision")
		c.hasPendingTrip = false
	}
	c.checkTime(rec, at)
	switch rec.Kind {
	case obs.KindPollSample:
		c.pollSample(rec)
	case obs.KindWindowEnd:
		c.windowEnd(rec)
	case obs.KindSafeguardTrip:
		c.safeguardTrip(rec)
	case obs.KindQoSTrip:
		c.qosTrip(rec)
	case obs.KindQoSResume:
		c.qosResume(rec)
	case obs.KindResize:
		c.resize(rec)
	case obs.KindChurnApplied:
		c.churnApplied(rec)
	case obs.KindBatchProgress:
		c.batchProgress(rec)
	case obs.KindFaultInjected:
		c.faultInjected(rec)
	case obs.KindResizeRetry:
		c.resizeRetry(rec)
	case obs.KindDegradedEnter:
		c.degradedEnter(rec)
	case obs.KindDegradedExit:
		c.degradedExit(rec)
	}
}

func (c *Checker) pollSample(rec *obs.Record) {
	e := &rec.PollSample
	if e.Busy < 0 || e.Busy > c.cfg.TotalCores {
		c.violatef(InvWindowShape, e.At, rec, "busy %d outside [0, %d]", e.Busy, c.cfg.TotalCores)
	}
	if e.Target < 1 || e.Target > c.alloc {
		c.violatef(InvConservation, e.At, rec, "in-force target %d outside [1, alloc %d]", e.Target, c.alloc)
	}
	if c.paused(e.At) && e.Target != c.alloc {
		c.violatef(InvPausedHarvest, e.At, rec,
			"target %d below alloc %d while harvesting is paused", e.Target, c.alloc)
	}
}

func (c *Checker) windowEnd(rec *obs.Record) {
	e := &rec.WindowEnd

	// Sequence: 1-based, gap-free.
	if e.Seq != c.lastSeq+1 {
		c.violatef(InvWindowSeq, e.At, rec, "window seq %d, want %d", e.Seq, c.lastSeq+1)
	}
	c.lastSeq = e.Seq

	// Shape: at least one sample and internally consistent statistics.
	if e.Samples < 1 {
		c.violatef(InvWindowShape, e.At, rec, "window with %d samples", e.Samples)
	}
	if e.Busy < 0 || e.Busy > c.cfg.TotalCores {
		c.violatef(InvWindowShape, e.At, rec, "busy %d outside [0, %d]", e.Busy, c.cfg.TotalCores)
	}
	f := e.Features
	if f.Min > f.Max || f.Avg < float64(f.Min) || f.Avg > float64(f.Max) ||
		f.Median < float64(f.Min) || f.Median > float64(f.Max) || f.Std < 0 {
		c.violatef(InvWindowShape, e.At, rec,
			"inconsistent features min=%d max=%d avg=%g std=%g median=%g",
			f.Min, f.Max, f.Avg, f.Std, f.Median)
	}
	if e.Peak1s < f.Max {
		c.violatef(InvWindowShape, e.At, rec,
			"trailing-second peak %d below this window's peak %d", e.Peak1s, f.Max)
	}

	// Safeguard pairing: a trip demands this window, and vice versa.
	if e.Safeguard {
		if !c.hasPendingTrip {
			c.violate(InvSafeguard, e.At, rec, "safeguard window without a preceding trip event")
		} else if c.pendingTrip.At != e.At || c.pendingTrip.Busy != e.Busy {
			c.violatef(InvSafeguard, e.At, rec,
				"safeguard window (t=%v busy=%d) does not match its trip (t=%v busy=%d)",
				e.At, e.Busy, c.pendingTrip.At, c.pendingTrip.Busy)
		}
	} else if c.hasPendingTrip {
		c.violate(InvSafeguard, e.At, rec,
			"safeguard trip followed by a non-safeguard window decision")
	}
	c.hasPendingTrip = false

	// Prediction/clamp consistency (Algorithm 1 line 20): the applied
	// target is min(max(prediction, busy+1), alloc) — pinned to the full
	// allocation while paused — and the clamp reason says which rule won.
	if c.paused(e.At) {
		if e.Clamp != obs.ClampPaused || e.Target != c.alloc {
			c.violatef(InvPausedHarvest, e.At, rec,
				"window decision while paused: target=%d clamp=%s, want target=%d clamp=%s",
				e.Target, e.Clamp, c.alloc, obs.ClampPaused)
		}
		return
	}
	if e.Clamp == obs.ClampPaused {
		c.violate(InvClamp, e.At, rec, "clamp says paused but harvesting is not paused")
		return
	}
	// Degraded mode behaves like NoHarvest: the decision must pin the
	// target to the full allocation and say so.
	if c.degraded {
		if e.Clamp != obs.ClampDegraded || e.Target != c.alloc {
			c.violatef(InvDegraded, e.At, rec,
				"window decision while degraded: target=%d clamp=%s, want target=%d clamp=%s",
				e.Target, e.Clamp, c.alloc, obs.ClampDegraded)
		}
		return
	}
	if e.Clamp == obs.ClampDegraded {
		c.violate(InvDegraded, e.At, rec, "clamp says degraded but the agent is not degraded")
		return
	}
	if e.Prediction < 0 || e.Prediction > c.alloc {
		c.violatef(InvClamp, e.At, rec, "prediction %d outside [0, alloc %d]", e.Prediction, c.alloc)
	}
	want, reason := e.Prediction, obs.ClampNone
	if m := e.Busy + 1; want < m {
		want, reason = m, obs.ClampBusyFloor
	}
	if want > c.alloc {
		want, reason = c.alloc, obs.ClampAllocCap
	}
	if e.Target != want || e.Clamp != reason {
		c.violatef(InvClamp, e.At, rec,
			"target=%d clamp=%s for prediction=%d busy=%d alloc=%d, want target=%d clamp=%s",
			e.Target, e.Clamp, e.Prediction, e.Busy, c.alloc, want, reason)
	}
}

func (c *Checker) safeguardTrip(rec *obs.Record) {
	e := &rec.SafeguardTrip
	if c.paused(e.At) {
		c.violate(InvPausedHarvest, e.At, rec, "short-term safeguard trip while harvesting is paused")
	}
	if c.degraded {
		c.violate(InvDegraded, e.At, rec, "short-term safeguard trip while degraded")
	}
	// Legality: expansion only from a harvesting state — the primaries
	// exhausted an assignment that was below their allocation.
	if e.Busy < e.Target {
		c.violatef(InvSafeguard, e.At, rec,
			"trip with busy %d below target %d (assignment not exhausted)", e.Busy, e.Target)
	}
	if e.Target >= c.alloc {
		c.violatef(InvSafeguard, e.At, rec,
			"trip at target %d >= alloc %d (not a harvesting state)", e.Target, c.alloc)
	}
	c.pendingTrip = *e
	c.hasPendingTrip = true
}

func (c *Checker) qosTrip(rec *obs.Record) {
	e := &rec.QoSTrip
	if !c.cfg.LongTermSafeguard {
		c.violate(InvQoS, e.At, rec, "QoS trip with the long-term safeguard disabled")
	}
	if c.paused(e.At) {
		c.violate(InvQoS, e.At, rec, "QoS trip while already paused")
	}
	if e.Frac < 0 || e.Frac > 1 || e.Waits < 0 {
		c.violatef(InvQoS, e.At, rec, "malformed trip: frac=%g waits=%d", e.Frac, e.Waits)
	} else if c.cfg.QoSViolationFrac > 0 && e.Frac < c.cfg.QoSViolationFrac {
		c.violatef(InvQoS, e.At, rec,
			"trip at violating fraction %g below threshold %g", e.Frac, c.cfg.QoSViolationFrac)
	}
	if c.cfg.HarvestPause > 0 && e.PauseUntil != e.At+c.cfg.HarvestPause {
		c.violatef(InvPauseDuration, e.At, rec,
			"pause until %v, want exactly %v + %v = %v",
			e.PauseUntil, e.At, c.cfg.HarvestPause, e.At+c.cfg.HarvestPause)
	}
	c.pausedUntil = e.PauseUntil
	c.resumeOwed = true
}

func (c *Checker) qosResume(rec *obs.Record) {
	e := &rec.QoSResume
	if !c.resumeOwed {
		c.violate(InvQoS, e.At, rec, "QoS resume without a preceding trip")
	}
	if e.At < c.pausedUntil {
		c.violatef(InvPauseDuration, e.At, rec,
			"resume at %v before the pause expires at %v", e.At, c.pausedUntil)
	}
	c.resumeOwed = false
}

func (c *Checker) resize(rec *obs.Record) {
	e := &rec.Resize
	// Chain continuity: the hypervisor reports FromCores as its logical
	// primary size at request time, which must match our running account.
	if e.FromCores != c.primary {
		c.violatef(InvResizeChain, e.At, rec,
			"resize from %d cores, but the previous resize left %d", e.FromCores, c.primary)
	}
	if e.FromCores == e.ToCores {
		c.violate(InvResizeChain, e.At, rec, "no-op resize event (from == to)")
	}
	// Conservation: the primary group stays within [1, alloc]; since
	// elastic == total − primary, this keeps primary + harvested + buffer
	// == total with the ElasticVM's minimum intact.
	if e.ToCores < 1 || e.ToCores > c.cfg.TotalCores {
		c.violatef(InvConservation, e.At, rec,
			"resize to %d cores outside [1, total %d]", e.ToCores, c.cfg.TotalCores)
	} else if e.ToCores > c.alloc {
		c.violatef(InvConservation, e.At, rec,
			"resize to %d cores exceeds the primary allocation %d (elastic minimum %d of %d total)",
			e.ToCores, c.alloc, c.cfg.ElasticMin, c.cfg.TotalCores)
	}
	if e.Latency < 0 {
		c.violatef(InvConservation, e.At, rec, "negative resize latency %v", e.Latency)
	}
	// While degraded (and not paused, which imposes its own rule), a
	// resize may only move the split toward the full allocation — the
	// agent is giving cores back, never harvesting more.
	if c.degraded && !c.paused(e.At) {
		from, to := e.FromCores-c.alloc, e.ToCores-c.alloc
		if abs(to) >= abs(from) {
			c.violatef(InvDegraded, e.At, rec,
				"resize %d -> %d while degraded moves away from alloc %d",
				e.FromCores, e.ToCores, c.alloc)
		}
	}
	if c.paused(e.At) && e.ToCores != c.alloc {
		if e.ToCores < c.alloc {
			// Possibly a churn departure (agent shrinks before the
			// ChurnApplied event is emitted) — judge on the next event.
			c.pendingPausedResize = Violation{
				Invariant: InvPausedHarvest, At: e.At, Event: *rec, HasEvent: true,
				Detail: fmt.Sprintf("resize to %d below alloc %d while paused, not explained by churn",
					e.ToCores, c.alloc),
			}
			c.hasPendingPausedResize = true
		} else {
			c.violatef(InvPausedHarvest, e.At, rec,
				"resize to %d while paused, want alloc %d", e.ToCores, c.alloc)
		}
	}
	c.primary = e.ToCores
}

func (c *Checker) churnApplied(rec *obs.Record) {
	e := &rec.ChurnApplied
	if e.LivePrimaries < 1 {
		c.violatef(InvChurn, e.At, rec, "%d live primaries after churn", e.LivePrimaries)
	}
	if c.cfg.PrimaryVMCores > 0 && e.PrimaryAlloc != e.LivePrimaries*c.cfg.PrimaryVMCores {
		c.violatef(InvChurn, e.At, rec,
			"alloc %d != %d live primaries x %d cores", e.PrimaryAlloc, e.LivePrimaries, c.cfg.PrimaryVMCores)
	}
	if e.PrimaryAlloc < 1 || e.PrimaryAlloc+c.cfg.ElasticMin > c.cfg.TotalCores {
		c.violatef(InvChurn, e.At, rec,
			"alloc %d outside [1, %d]", e.PrimaryAlloc, c.cfg.TotalCores-c.cfg.ElasticMin)
	}
	c.alloc = e.PrimaryAlloc
	// The agent shrinks its in-force assignment synchronously on a
	// departure, so by the time the churn event is emitted the primary
	// group must already fit the new allocation.
	if c.primary > c.alloc {
		c.violatef(InvChurn, e.At, rec,
			"primary group %d exceeds the post-churn allocation %d", c.primary, c.alloc)
	}
}

func (c *Checker) batchProgress(rec *obs.Record) {
	e := &rec.BatchProgress
	if e.Phase < 0 || e.Phase > e.Phases || e.Phases < 0 {
		c.violatef(InvBatch, e.At, rec, "phase %d outside [0, %d]", e.Phase, e.Phases)
	}
	if e.Finished != (e.Phase == e.Phases) {
		c.violatef(InvBatch, e.At, rec,
			"finished=%t at phase %d of %d", e.Finished, e.Phase, e.Phases)
	}
	if e.Phase < c.lastPhase {
		c.violatef(InvBatch, e.At, rec, "phase %d after phase %d", e.Phase, c.lastPhase)
	}
	c.lastPhase = e.Phase
	if e.Finished {
		if c.batchFinished {
			c.violate(InvBatch, e.At, rec, "batch finished twice")
		}
		c.batchFinished = true
	}
}

// faultInjected, besides shape checks, advances the probation anchor for
// agent-visible fault kinds.
func (c *Checker) faultInjected(rec *obs.Record) {
	e := &rec.FaultInjected
	if e.Dur < 0 {
		c.violatef(InvDegraded, e.At, rec, "fault %s with negative duration %v", e.Kind, e.Dur)
	}
	switch e.Kind {
	case obs.FaultHypercallFail, obs.FaultPollDrop:
		c.markVisibleFault(e.At)
	case obs.FaultAgentStall, obs.FaultAgentCrash:
		// The agent re-stamps its fault clock when it wakes.
		c.markVisibleFault(e.At + e.Dur)
	}
}

func (c *Checker) markVisibleFault(at sim.Time) {
	if !c.sawVisibleFault || at > c.lastVisibleFault {
		c.lastVisibleFault = at
		c.sawVisibleFault = true
	}
}

func (c *Checker) resizeRetry(rec *obs.Record) {
	e := &rec.ResizeRetry
	if e.Attempt < 1 {
		c.violatef(InvRetry, e.At, rec, "retry attempt %d, want >= 1", e.Attempt)
		return
	}
	if c.cfg.MaxRetries > 0 && e.Attempt > c.cfg.MaxRetries {
		c.violatef(InvRetry, e.At, rec,
			"retry attempt %d exceeds MaxRetries %d (retrying forever?)", e.Attempt, c.cfg.MaxRetries)
	}
	if c.cfg.RetryBackoff > 0 {
		if want := c.cfg.RetryBackoff << (e.Attempt - 1); e.Backoff != want {
			c.violatef(InvRetry, e.At, rec,
				"retry %d backs off %v, want %v (exponential from %v)",
				e.Attempt, e.Backoff, want, c.cfg.RetryBackoff)
		}
	}
	if e.Target < 1 || e.Target > c.cfg.TotalCores {
		c.violatef(InvRetry, e.At, rec, "retry target %d outside [1, %d]", e.Target, c.cfg.TotalCores)
	}
}

func (c *Checker) degradedEnter(rec *obs.Record) {
	e := &rec.DegradedEnter
	if c.degraded {
		c.violate(InvDegraded, e.At, rec, "degraded-enter while already degraded")
	}
	if e.Reason != obs.DegradeResizeFailures && e.Reason != obs.DegradeMissedPolls {
		c.violatef(InvDegraded, e.At, rec, "unknown degrade reason %d", int(e.Reason))
	}
	if e.Failures < 0 || e.MissedPolls < 0 {
		c.violatef(InvDegraded, e.At, rec,
			"negative counters: failures=%d missed=%d", e.Failures, e.MissedPolls)
	}
	c.degraded = true
	c.degradedAt = e.At
}

func (c *Checker) degradedExit(rec *obs.Record) {
	e := &rec.DegradedExit
	if !c.degraded {
		c.violate(InvDegraded, e.At, rec, "degraded-exit without a matching enter")
		c.degraded = false
		return
	}
	if e.Dur != e.At-c.degradedAt {
		c.violatef(InvDegraded, e.At, rec,
			"exit reports degraded for %v, entered at %v so want %v",
			e.Dur, c.degradedAt, e.At-c.degradedAt)
	}
	if c.cfg.Probation > 0 {
		if e.CleanFor < c.cfg.Probation {
			c.violatef(InvProbation, e.At, rec,
				"exit after only %v clean, probation is %v", e.CleanFor, c.cfg.Probation)
		}
		if c.sawVisibleFault {
			if want := e.At - c.lastVisibleFault; e.CleanFor != want {
				c.violatef(InvProbation, e.At, rec,
					"exit reports %v clean, last visible fault at %v so want %v",
					e.CleanFor, c.lastVisibleFault, want)
			}
		}
	}
	c.degraded = false
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

var _ obs.Observer = (*Checker)(nil)
