// Package core implements SmartHarvest's EVMAgent (the paper's Algorithm
// 1) and the harvesting policies it is compared against. The agent runs on
// the simulation event loop, polls the hypervisor for busy primary cores
// at a fine interval, and at each learning-window boundary asks its
// Controller for the next primary-core target, enforcing the paper's two
// safeguards:
//
//   - short-term: if at any poll the primary VMs are using every core they
//     were assigned, the window is cut short and the assignment expanded,
//     because the buffer is empty and the learner is blind;
//   - long-term: if primary vCPU dispatch waits show sustained
//     starvation for consecutive QoS windows, harvesting is disabled
//     entirely for a cool-down period while learning continues in the
//     background.
package core

import (
	"fmt"
	"math"
	"sort"

	"smartharvest/internal/metrics"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// ResizeResult reports what a SetPrimaryCores request did when it did
// not error.
type ResizeResult struct {
	// Applied is true when the request initiated core moves; false for a
	// no-op (the group already had the requested size).
	Applied bool
	// Latency is the hypercall issue time the agent is blocked for
	// (zero for no-ops).
	Latency sim.Time
}

// Hypervisor is the narrow, black-box interface the agent needs — the
// same contract the paper's agent gets from Hyper-V's Host Compute
// Service. internal/harness adapts the simulated machine to it;
// internal/hostcg implements it on a real Linux host over cgroups.
type Hypervisor interface {
	// TotalCores is the size of the harvesting pool.
	TotalCores() int
	// BusyPrimaryCores returns how many primary-group cores currently
	// run an active software thread, or -1 if the reading was lost (a
	// dropped monitoring sample; the agent skips it and counts it toward
	// the degradation ladder).
	BusyPrimaryCores() int
	// SetPrimaryCores requests a new primary-group size; the remainder
	// goes to the ElasticVM. A transient failure returns a non-nil error
	// and leaves the split unchanged; the agent retries with backoff.
	SetPrimaryCores(n int) (ResizeResult, error)
	// DrainPrimaryWaits returns primary vCPU dispatch-wait samples (ns)
	// recorded since the last call.
	DrainPrimaryWaits() []int64
}

// EventDrivenBusy is the marker a Hypervisor implements to let the agent
// run its busy-poll ahead across event-free gaps (DESIGN §5 "Poll
// run-ahead"). Implementing it declares that BusyPrimaryCores is a pure
// function of state that changes only inside events of the agent's own
// sim.Loop: it draws no randomness, reads no clock or outside source, and
// nothing reaches that state — or calls the agent's SetPrimaryAlloc or
// ForceCrash, or schedules a state-changing event — from outside a loop
// callback once the loop has fired the agent's first poll (set-up before
// the first Run is free). Under that contract a poll that
// changed nothing proves every later poll before the loop's next event
// would read the same value and change nothing either, so the agent
// records those samples at once and fires no event for them. The
// simulated machine qualifies; a fault-injecting wrapper (one RNG draw a
// poll) and the Linux host backend (/proc/stat) do not and must not
// implement it.
type EventDrivenBusy interface {
	Hypervisor
	// BusyChangesOnlyInLoopEvents is never called; declaring it is the
	// promise above.
	BusyChangesOnlyInLoopEvents()
}

// AgentFault is one injected agent-level fault, consulted at each
// learning-window boundary: the agent may stall (missing whole windows)
// and/or crash, losing its in-memory window state and rebuilding the
// model from a checkpoint (or from scratch when LoseModel is set).
type AgentFault struct {
	// Stall is how long the agent is unresponsive before the window
	// starts.
	Stall sim.Time
	// Crash indicates the agent process died and restarted.
	Crash bool
	// Restart is the restart time added after a crash.
	Restart sim.Time
	// LoseModel discards the learner state on a crash instead of
	// restoring it from a checkpoint.
	LoseModel bool
}

// AgentFaults lets a fault injector stall or crash the agent. The zero
// AgentFault means no fault this window. See internal/faults.
type AgentFaults interface {
	WindowFault() AgentFault
}

// Checkpointer is implemented by controllers whose learner state can be
// serialized and restored — the foundation of crash-restart recovery.
// SmartHarvest implements it over the learner.Predictor checkpoint
// round-trip, so every registered predictor (not just CSOAA) survives a
// crash-restart with its learned state intact.
type Checkpointer interface {
	// Checkpoint serializes the controller's learner state.
	Checkpoint() ([]byte, error)
	// Restore replaces the learner state with a previous checkpoint.
	Restore(data []byte) error
	// Reset discards the learner state entirely (back to the
	// conservative prior).
	Reset()
}

// Window is what a Controller sees at a learning-window boundary.
type Window struct {
	// At is the virtual time of the window boundary. Time-aware
	// predictors (e.g. the periodicity detector) key on it; zero in
	// hand-built test windows is fine for time-free controllers.
	At sim.Time
	// Samples are the busy-core readings collected this window, oldest
	// first. Never empty.
	Samples []int
	// Peak is the maximum busy-core reading this window.
	Peak int
	// Peak1s is the maximum over roughly the trailing second, used by
	// the conservative short-term safeguard.
	Peak1s int
	// Safeguard reports that the window was cut short because the
	// primary VMs exhausted their assignment.
	Safeguard bool
	// CurrentTarget is the primary-core assignment in force.
	CurrentTarget int
	// Busy is the busy-core reading at the decision instant.
	Busy int
}

// Controller decides core assignments. Implementations: SmartHarvest
// (online learning), FixedBuffer, PrevPeak/PrevPeakN, EWMA, NoHarvest.
type Controller interface {
	// Name identifies the policy in experiment output.
	Name() string
	// OnWindowEnd returns the primary-core target for the next window.
	OnWindowEnd(w Window) int
	// OnPoll lets reactive policies (FixedBuffer) adjust at poll
	// granularity; return ok=false to do nothing. The ok=false answer must
	// be pure: a function of (busy, currentTarget) and of controller state
	// that only the agent's other calls into the controller change
	// (OnWindowEnd, SetAlloc, Restore, Reset), never of the clock or of
	// how often OnPoll was called. Poll run-ahead (see EventDrivenBusy)
	// relies on it: after an ok=false the agent does not ask again until
	// busy, the target or that state can have changed, so a controller
	// sees fewer OnPoll calls than the window has samples.
	OnPoll(busy, currentTarget int) (target int, ok bool)
	// Safeguards reports whether the agent's short-term safeguard should
	// watch this policy's windows (SmartHarvest and PrevPeak variants).
	// Constant for the controller's lifetime.
	Safeguards() bool
}

// Config parameterizes the agent. DefaultConfig gives the paper's values.
type Config struct {
	// PrimaryAlloc is the number of cores allocated (sold) to the
	// primary VMs; the prediction classes are 0..PrimaryAlloc.
	PrimaryAlloc int
	// ElasticMin is the ElasticVM's guaranteed minimum core count.
	ElasticMin int
	// Window is the learning-window length (paper default 25 ms).
	Window sim.Time
	// PollInterval is the busy-core sampling period (paper: 50 µs).
	PollInterval sim.Time
	// PostResizeSleep is how long the agent sleeps after a resize to let
	// it take effect (paper: 10 ms on cpugroups, 0 with IPIs).
	PostResizeSleep sim.Time
	// PeakHistory is the lookback for the conservative safeguard's
	// "peak over the past second".
	PeakHistory sim.Time

	// LongTermSafeguard enables the vCPU-wait QoS guard.
	LongTermSafeguard bool
	// QoSWindow is the wait-monitoring period (paper: 500 ms).
	QoSWindow sim.Time
	// QoSWaitThreshold is the per-dispatch wait considered bad (50 µs).
	QoSWaitThreshold sim.Time
	// QoSViolationFrac is the fraction of primary vCPU dispatch waits
	// exceeding QoSWaitThreshold that arms the guard (the paper's 1%).
	QoSViolationFrac float64
	// QoSConsecutive is how many consecutive bad windows trip it (2).
	QoSConsecutive int
	// HarvestPause is how long harvesting stays disabled once tripped
	// (10 s).
	HarvestPause sim.Time

	// RecordSeries enables per-window time-series recording (allocation
	// and observed peak), used by Figure 7.
	RecordSeries bool

	// Observer receives the agent's event stream (polls, window
	// decisions, safeguard and QoS trips). Nil disables observation; the
	// hot path then performs no interface calls and no allocations. An
	// observer is owed one PollSample per poll, so attaching one also
	// keeps every poll a real event (no run-ahead).
	Observer obs.Observer

	// Resilience governs how the agent survives hypervisor and signal
	// faults. The zero value selects DefaultResilience.
	Resilience ResiliencePolicy

	// Faults, when non-nil, is consulted at every window boundary and may
	// stall or crash the agent. Nil (the default) keeps the agent perfect.
	Faults AgentFaults
}

// ResiliencePolicy bounds the agent's fault responses: how hard it
// retries failed resizes, when it gives up on harvesting entirely
// (degraded mode, NoHarvest behaviour), and how long a clean probation
// must last before harvesting resumes — mirroring the long-term
// safeguard's disable/re-arm shape.
type ResiliencePolicy struct {
	// MaxRetries is how many times a failed resize is re-issued before
	// the operation is abandoned (0 disables retries).
	MaxRetries int
	// RetryBackoff is the delay before the first retry; it doubles per
	// attempt (exponential backoff).
	RetryBackoff sim.Time
	// DegradeAfterFailures: this many consecutive abandoned resize
	// operations enter degraded mode.
	DegradeAfterFailures int
	// DegradeAfterMissedPolls: this many lost busy-core polls within one
	// learning window enter degraded mode.
	DegradeAfterMissedPolls int
	// Probation is how long the run must stay free of agent-visible
	// faults before a degraded agent re-enters harvesting (checked at
	// window boundaries).
	Probation sim.Time
}

// DefaultResilience returns the tuned resilience parameters: 3 retries
// starting at 1 ms backoff, degradation after 3 abandoned resizes or 50
// lost polls in a window, and a 1 s clean probation.
func DefaultResilience() ResiliencePolicy {
	return ResiliencePolicy{
		MaxRetries:              3,
		RetryBackoff:            sim.Millisecond,
		DegradeAfterFailures:    3,
		DegradeAfterMissedPolls: 50,
		Probation:               sim.Second,
	}
}

func (p *ResiliencePolicy) validate() error {
	if p.MaxRetries < 0 || p.RetryBackoff < 0 {
		return fmt.Errorf("core: bad retry policy (retries=%d backoff=%v)",
			p.MaxRetries, p.RetryBackoff)
	}
	if p.MaxRetries > 0 && p.RetryBackoff <= 0 {
		return fmt.Errorf("core: retries require a positive backoff")
	}
	if p.DegradeAfterFailures < 1 || p.DegradeAfterMissedPolls < 1 {
		return fmt.Errorf("core: degradation thresholds must be >= 1")
	}
	if p.Probation <= 0 {
		return fmt.Errorf("core: Probation must be positive")
	}
	return nil
}

// DefaultConfig returns the paper's tuned parameters for a machine with
// the given primary allocation and elastic minimum.
func DefaultConfig(primaryAlloc, elasticMin int) Config {
	return Config{
		PrimaryAlloc:      primaryAlloc,
		ElasticMin:        elasticMin,
		Window:            25 * sim.Millisecond,
		PollInterval:      50 * sim.Microsecond,
		PostResizeSleep:   10 * sim.Millisecond,
		PeakHistory:       sim.Second,
		LongTermSafeguard: true,
		QoSWindow:         500 * sim.Millisecond,
		QoSWaitThreshold:  50 * sim.Microsecond,
		QoSViolationFrac:  0.01,
		QoSConsecutive:    1,
		HarvestPause:      10 * sim.Second,
		Resilience:        DefaultResilience(),
	}
}

func (c *Config) validate() error {
	if c.PrimaryAlloc < 1 {
		return fmt.Errorf("core: PrimaryAlloc must be >= 1")
	}
	if c.ElasticMin < 0 {
		return fmt.Errorf("core: ElasticMin must be >= 0")
	}
	if c.Window <= 0 || c.PollInterval <= 0 || c.PollInterval > c.Window {
		return fmt.Errorf("core: need 0 < PollInterval <= Window")
	}
	if c.PostResizeSleep < 0 || c.PeakHistory < c.Window {
		return fmt.Errorf("core: bad sleep/history")
	}
	// The QoS monitor runs regardless of whether the long-term safeguard
	// acts on it, so its parameters must always be sane.
	if c.QoSWindow <= 0 || c.QoSWaitThreshold <= 0 ||
		c.QoSViolationFrac <= 0 || c.QoSViolationFrac > 1 || c.QoSConsecutive < 1 ||
		c.HarvestPause <= 0 {
		return fmt.Errorf("core: bad long-term safeguard parameters")
	}
	// A fully zero policy means "unset" and is replaced with the default
	// by NewAgent; anything partially set must be coherent.
	if c.Resilience != (ResiliencePolicy{}) {
		if err := c.Resilience.validate(); err != nil {
			return err
		}
	}
	return nil
}

// windowPeak is one entry of the trailing peak history.
type windowPeak struct {
	at   sim.Time
	peak int
}

// resume selects what the agent was doing when a resize operation (or a
// stall) suspended it, so the right loop continues afterwards.
type resumeKind uint8

const (
	resumePoll   resumeKind = iota // continue polling the current window
	resumeWindow                   // start the next window
)

// resizeOp is the in-flight resize operation: one target pursued through
// up to 1+MaxRetries hypercall attempts with exponential backoff.
type resizeOp struct {
	target  int
	attempt int // failed attempts so far (retry number)
	resume  resumeKind
	active  bool
}

// Agent is the EVMAgent: it owns the polling loop, the safeguards, and
// the resize mechanics, delegating the per-window decision to a
// Controller.
type Agent struct {
	loop *sim.Loop
	hv   Hypervisor
	cfg  Config
	ctrl Controller

	target        int // primary cores currently requested
	samples       []int
	windowEnd     sim.Time
	peaks         []windowPeak
	pausedUntil   sim.Time // long-term safeguard cool-down end
	qosStrikes    int
	started       bool
	resumePending bool  // a QoSResume event is owed once the pause expires
	sortScratch   []int // reused for the observer's median computation

	// Resilience state.
	op             resizeOp
	opDoneFn       func() // cached method values: scheduling the poll or
	opRetryFn      func() // a fault-free resize continuation must not
	wakeFn         func() // allocate
	pollFn         func()
	runAhead       bool     // hv is EventDrivenBusy and no observer is attached
	aheadUntil     sim.Time // last poll instant the pending run-ahead covers
	dead           bool     // ForceCrash downtime: every loop is severed
	lastBusy       int      // last delivered busy reading (for dropped polls)
	splitDirty     bool     // a fire-and-forget resize (QoS/churn) failed
	degraded       bool     // harvesting abandoned; NoHarvest behaviour
	degradedSince  sim.Time // when degraded mode was entered
	lastFault      sim.Time // last agent-visible fault (probation anchor)
	consecFailures int      // consecutive abandoned resize operations
	windowMissed   int      // polls lost in the current window

	// Stats.
	polls          uint64 // poll callbacks fired
	pollsSkipped   uint64 // poll instants run ahead over
	windows        uint64
	safeguards     uint64
	qosTrips       uint64
	resizeCount    uint64
	resizeRetries  uint64 // re-issued hypercalls
	resizeFailures uint64 // failed hypercall attempts
	resizesAborted uint64 // operations abandoned after MaxRetries
	missedPolls    uint64 // dropped busy readings
	missedWindows  uint64 // whole windows lost to stalls/crashes
	stalls         uint64
	crashes        uint64
	degradations   uint64
	targetSeries   metrics.Series
	peakSeries     metrics.Series
	qosViolations  metrics.Series
}

// NewAgent wires an agent. The controller must already be configured for
// cfg.PrimaryAlloc classes.
func NewAgent(loop *sim.Loop, hv Hypervisor, ctrl Controller, cfg Config) (*Agent, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.PrimaryAlloc+cfg.ElasticMin > hv.TotalCores() {
		return nil, fmt.Errorf("core: alloc %d + elastic min %d exceeds %d cores",
			cfg.PrimaryAlloc, cfg.ElasticMin, hv.TotalCores())
	}
	if cfg.Resilience == (ResiliencePolicy{}) {
		cfg.Resilience = DefaultResilience()
	}
	a := &Agent{
		loop: loop, hv: hv, cfg: cfg, ctrl: ctrl,
		target:       cfg.PrimaryAlloc,
		lastFault:    -1,
		targetSeries: metrics.Series{Name: "primary-target"},
		peakSeries:   metrics.Series{Name: "window-peak"},
	}
	a.opDoneFn = a.opDone
	a.opRetryFn = a.opRetry
	a.wakeFn = a.wake
	a.pollFn = a.poll
	_, eventDriven := hv.(EventDrivenBusy)
	a.runAhead = eventDriven && cfg.Observer == nil
	return a, nil
}

// Controller returns the agent's policy.
func (a *Agent) Controller() Controller { return a.ctrl }

// Target returns the current primary-core target.
func (a *Agent) Target() int { return a.target }

// Polls returns how many poll events fired. Polls()+PollsSkipped() is the
// number of poll instants the agent has accounted for, which run-ahead
// leaves unchanged.
func (a *Agent) Polls() uint64 { return a.polls }

// PollsSkipped returns how many poll instants up to now run-ahead recorded
// without firing an event; always zero unless the hypervisor is
// EventDrivenBusy and no observer is attached.
func (a *Agent) PollsSkipped() uint64 {
	n := a.pollsSkipped
	if future := a.aheadUntil - a.loop.Now(); future > 0 {
		// Covered by the pending run-ahead, but the clock is not there yet.
		dt := a.cfg.PollInterval
		n -= uint64((future + dt - 1) / dt)
	}
	return n
}

// Windows returns how many learning windows have completed.
func (a *Agent) Windows() uint64 { return a.windows }

// SafeguardInvocations returns how often the short-term safeguard fired.
func (a *Agent) SafeguardInvocations() uint64 { return a.safeguards }

// QoSTrips returns how often the long-term safeguard disabled harvesting.
func (a *Agent) QoSTrips() uint64 { return a.qosTrips }

// ResizeCount returns how many resizes the agent issued.
func (a *Agent) ResizeCount() uint64 { return a.resizeCount }

// ResizeRetries returns how many failed resizes were re-issued.
func (a *Agent) ResizeRetries() uint64 { return a.resizeRetries }

// ResizeFailures returns how many individual hypercall attempts failed.
func (a *Agent) ResizeFailures() uint64 { return a.resizeFailures }

// ResizesAborted returns how many resize operations were abandoned after
// exhausting their retries.
func (a *Agent) ResizesAborted() uint64 { return a.resizesAborted }

// MissedPolls returns how many busy-core readings were lost.
func (a *Agent) MissedPolls() uint64 { return a.missedPolls }

// MissedWindows returns how many whole learning windows were lost to
// stalls and crash restarts.
func (a *Agent) MissedWindows() uint64 { return a.missedWindows }

// Crashes returns how many crash-restart faults the agent absorbed.
func (a *Agent) Crashes() uint64 { return a.crashes }

// Stalls returns how many stall faults the agent absorbed.
func (a *Agent) Stalls() uint64 { return a.stalls }

// Degradations returns how often the agent fell back to NoHarvest.
func (a *Agent) Degradations() uint64 { return a.degradations }

// Degraded reports whether the agent is currently in degraded
// (NoHarvest) mode.
func (a *Agent) Degraded() bool { return a.degraded }

// Down reports whether the agent is currently dead from a ForceCrash.
func (a *Agent) Down() bool { return a.dead }

// TargetSeries returns the recorded per-window primary-core assignment
// (empty unless Config.RecordSeries).
func (a *Agent) TargetSeries() *metrics.Series { return &a.targetSeries }

// PeakSeries returns the recorded per-window observed peak (empty unless
// Config.RecordSeries).
func (a *Agent) PeakSeries() *metrics.Series { return &a.peakSeries }

// QoSViolationSeries returns the per-QoS-window fraction of bad dispatch
// waits (empty unless Config.RecordSeries).
func (a *Agent) QoSViolationSeries() *metrics.Series { return &a.qosViolations }

// HarvestingPaused reports whether the long-term safeguard currently has
// harvesting disabled.
func (a *Agent) HarvestingPaused() bool { return a.loop.Now() < a.pausedUntil }

// AllocAware is implemented by controllers that can follow primary-VM
// arrivals and departures (allocation changes) at runtime.
type AllocAware interface {
	// SetAlloc informs the controller of the new total primary core
	// allocation. Implementations may require it not to exceed the
	// allocation they were constructed for.
	SetAlloc(alloc int)
}

// SetPrimaryAlloc adjusts the agent to a changed primary allocation, as
// when a primary VM arrives or departs. Departed tenants' cores become
// harvestable immediately (the target clamp drops); new tenants' cores
// are honored from the next decision on. The controller is informed if it
// implements AllocAware.
func (a *Agent) SetPrimaryAlloc(n int) error {
	if n < 1 || n+a.cfg.ElasticMin > a.hv.TotalCores() {
		return fmt.Errorf("core: primary alloc %d out of range [1, %d]",
			n, a.hv.TotalCores()-a.cfg.ElasticMin)
	}
	a.cfg.PrimaryAlloc = n
	if aa, ok := a.ctrl.(AllocAware); ok {
		aa.SetAlloc(n)
	}
	// Shrink the in-force assignment right away if it now exceeds the
	// allocation; growth happens through normal window decisions.
	if a.target > n {
		a.target = n
		if a.dead {
			// A dead agent cannot issue hypercalls; the split is re-issued
			// on revival through the dirty-split path. (While dead the
			// watchdog already gave the primaries everything, so the only
			// pending change is a shrink of the primary group — safe to
			// defer.)
			a.splitDirty = true
		} else {
			a.fireAndForgetResize(n)
		}
	}
	return nil
}

// ForceCrash kills the agent from outside for down: the whole-server
// failure the fleet fault injector models, as opposed to the in-window
// crash faults WindowFault delivers. Before dying, the host watchdog's
// failsafe returns every core to the primary VMs (the paper's safety
// stance: an absent agent must never keep tenants' cores harvested).
// Every agent loop is severed until the agent revives after down,
// re-syncing its window grid to the revival time; in-memory window state
// is lost and the learner restores from a checkpoint unless loseModel.
// Calling it on an already-dead agent does nothing.
func (a *Agent) ForceCrash(down sim.Time, loseModel bool) {
	if a.dead || down <= 0 {
		return
	}
	a.crashes++
	a.missedWindows += uint64(down / a.cfg.Window)
	a.restartState(loseModel)
	// Watchdog failsafe: tenants get their full allocation back.
	a.target = a.cfg.PrimaryAlloc
	a.fireAndForgetResize(a.target)
	a.dead = true
	a.op.active = false
	a.loop.After(down, a.revive)
}

// revive brings a ForceCrash'd agent back: the downtime was an
// agent-visible fault (the probation clock restarts) and the window grid
// re-syncs to now.
func (a *Agent) revive() {
	a.dead = false
	a.lastFault = a.loop.Now()
	a.startWindow()
}

// fireAndForgetResize issues one urgent resize (QoS trip, churn shrink)
// outside the window state machine. A failure marks the split dirty so
// the next window decision re-issues it even if the target matches.
func (a *Agent) fireAndForgetResize(n int) {
	res, err := a.hv.SetPrimaryCores(n)
	if err != nil {
		a.lastFault = a.loop.Now()
		a.resizeFailures++
		a.splitDirty = true
		return
	}
	if res.Applied {
		a.resizeCount++
	}
}

// PrimaryAlloc returns the agent's current notion of the primary
// allocation.
func (a *Agent) PrimaryAlloc() int { return a.cfg.PrimaryAlloc }

// Start begins the agent's loops. The primary VMs initially hold their
// full allocation.
func (a *Agent) Start() {
	if a.started {
		panic("core: agent started twice")
	}
	a.started = true
	a.hv.SetPrimaryCores(a.target)
	a.beginWindow()
	// The QoS monitor always runs (it also keeps the hypervisor's wait
	// buffer drained and feeds diagnostics); it only *acts* when the
	// long-term safeguard is enabled.
	a.loop.NewTicker(a.cfg.QoSWindow, a.cfg.QoSWindow, a.qosCheck)
}

// beginWindow consults the fault injector (if any), then resets window
// state and schedules the first poll. A stall or crash fault suspends
// the agent first; whole windows lost to it are counted and the window
// boundary re-syncs to the wake time.
func (a *Agent) beginWindow() {
	if f := a.cfg.Faults; f != nil {
		if fault := f.WindowFault(); fault.Crash || fault.Stall > 0 || fault.Restart > 0 {
			a.agentFault(fault)
			return
		}
	}
	a.startWindow()
}

// startWindow resets window state and schedules the first poll.
func (a *Agent) startWindow() {
	a.samples = a.samples[:0]
	a.windowMissed = 0
	a.windowEnd = a.loop.Now() + a.cfg.Window
	a.schedulePoll()
}

// agentFault absorbs a stall or crash-restart fault.
func (a *Agent) agentFault(f AgentFault) {
	if f.Crash {
		a.crashes++
		a.restartState(f.LoseModel)
	} else {
		a.stalls++
	}
	delay := f.Stall + f.Restart
	if delay > 0 {
		a.missedWindows += uint64(delay / a.cfg.Window)
		a.loop.After(delay, a.wakeFn)
		return
	}
	a.wake()
}

// wake resumes after a stall/crash: the fault was agent-visible (the
// probation clock restarts) and the window grid re-syncs to now.
func (a *Agent) wake() {
	if a.dead {
		return
	}
	a.lastFault = a.loop.Now()
	a.startWindow()
}

// restartState models a crash-restart: the in-memory window state is
// gone; the learner either survives through a checkpoint round-trip
// (reusing the model's serialize path) or is reset to the conservative
// prior. The in-force core split lives in the hypervisor and survives.
func (a *Agent) restartState(loseModel bool) {
	a.peaks = a.peaks[:0]
	a.qosStrikes = 0
	cp, ok := a.ctrl.(Checkpointer)
	if !ok {
		return
	}
	if !loseModel {
		if data, err := cp.Checkpoint(); err == nil {
			if cp.Restore(data) == nil {
				return
			}
		}
	}
	cp.Reset()
}

func (a *Agent) schedulePoll() {
	a.loop.After(a.cfg.PollInterval, a.pollFn)
}

// pollAhead stands in for schedulePoll after a poll that changed nothing
// (no safeguard trip, OnPoll ok=false, window not over). Nothing the poll
// reads can change before the loop's next event, so every poll instant
// strictly before min(that event, windowEnd) would repeat this one: their
// samples are recorded now and the one real poll is scheduled at the
// first instant at or after that limit. An instant equal to the next
// event's time is never skipped, and the real poll is scheduled before
// anything at or after the limit has fired, so its (when, seq) order
// against every other event is what poll-by-poll scheduling gives.
func (a *Agent) pollAhead(busy int) {
	now, dt := a.loop.Now(), a.cfg.PollInterval
	limit := a.windowEnd
	if next, ok := a.loop.Next(); ok && next < limit {
		limit = next
	}
	skip := sim.Time(0) // instants now+j*dt, j >= 1, strictly before limit
	if limit > now {
		skip = (limit - now - 1) / dt
	}
	for j := sim.Time(0); j < skip; j++ {
		a.samples = append(a.samples, busy)
	}
	a.pollsSkipped += uint64(skip)
	a.aheadUntil = now + skip*dt
	a.loop.After((skip+1)*dt, a.pollFn)
}

// poll is one iteration of Algorithm 1's inner loop.
func (a *Agent) poll() {
	a.polls++
	if a.dead {
		return
	}
	busy := a.hv.BusyPrimaryCores()
	if busy < 0 {
		a.droppedPoll()
		return
	}
	if busy > a.cfg.PrimaryAlloc {
		// A noisy or stale reading (or one taken before an allocation
		// shrink) can exceed the allocation; the learner's feature range
		// is [0, alloc], so clamp rather than trust it.
		busy = a.cfg.PrimaryAlloc
	}
	a.lastBusy = busy
	a.samples = append(a.samples, busy)
	if o := a.cfg.Observer; o != nil {
		o.OnPollSample(obs.PollSample{At: a.loop.Now(), Busy: busy, Target: a.target})
	}

	// Short-term safeguard: the primaries are using everything we left
	// them; cut the window short and expand (Algorithm 1 lines 7-9).
	// Suppressed while degraded: the target is being driven to the full
	// allocation anyway and the signal is not trustworthy.
	if !a.degraded && a.ctrl.Safeguards() && busy >= a.target && a.target < a.cfg.PrimaryAlloc {
		a.endWindow(true, busy)
		return
	}

	// Reactive policies (FixedBuffer) adjust between windows.
	t, reacted := a.ctrl.OnPoll(busy, a.target)
	if reacted {
		t, _ = a.clampTarget(t, busy)
		if a.startResize(t, resumePoll) {
			// The single-threaded agent is busy resizing/sleeping;
			// polling resumes (and the window edge is postponed) after.
			return
		}
	}

	if a.loop.Now() >= a.windowEnd {
		a.endWindow(false, busy)
		return
	}
	if a.runAhead && !reacted {
		a.pollAhead(busy)
		return
	}
	a.schedulePoll()
}

// droppedPoll handles a lost busy reading: no sample, no safeguard, no
// reactive adjustment — but the loss counts toward the degradation
// ladder, and the window edge is still honored (using the last delivered
// reading as the decision-instant busy value).
func (a *Agent) droppedPoll() {
	now := a.loop.Now()
	a.missedPolls++
	a.windowMissed++
	a.lastFault = now
	if !a.degraded && a.windowMissed >= a.cfg.Resilience.DegradeAfterMissedPolls {
		a.enterDegraded(obs.DegradeMissedPolls)
		// Cut the window short so the degraded decision (full
		// allocation) is applied immediately rather than at the edge.
		a.endWindow(false, a.lastBusy)
		return
	}
	if now >= a.windowEnd {
		a.endWindow(false, a.lastBusy)
		return
	}
	a.schedulePoll()
}

// enterDegraded abandons harvesting: window decisions pin the target to
// the full primary allocation (ClampDegraded) until a clean probation
// period has passed.
func (a *Agent) enterDegraded(reason obs.DegradeReason) {
	a.degraded = true
	a.degradedSince = a.loop.Now()
	a.degradations++
	if o := a.cfg.Observer; o != nil {
		o.OnDegradedEnter(obs.DegradedEnter{
			At:          a.loop.Now(),
			Reason:      reason,
			Failures:    a.consecFailures,
			MissedPolls: a.windowMissed,
		})
	}
}

// endWindow runs the Controller, applies the new target, and schedules
// the next window. Degraded mode exits here — at a window boundary,
// after a clean probation — so the very decision that ends probation can
// resume harvesting.
func (a *Agent) endWindow(safeguard bool, busy int) {
	a.windows++
	if safeguard {
		a.safeguards++
	}
	now := a.loop.Now()
	if a.degraded && a.lastFault >= 0 && now-a.lastFault >= a.cfg.Resilience.Probation {
		a.degraded = false
		a.consecFailures = 0
		if o := a.cfg.Observer; o != nil {
			o.OnDegradedExit(obs.DegradedExit{
				At:       now,
				CleanFor: now - a.lastFault,
				Dur:      now - a.degradedSince,
			})
		}
	}
	if len(a.samples) == 0 {
		// Every reading this window was dropped; fall back to the last
		// delivered one so the controller contract (Samples never empty)
		// holds under signal faults too.
		a.samples = append(a.samples, busy)
	}
	peak := 0
	for _, s := range a.samples {
		if s > peak {
			peak = s
		}
	}
	a.peaks = append(a.peaks, windowPeak{at: now, peak: peak})
	a.trimPeaks(now)

	w := Window{
		At:            now,
		Samples:       a.samples,
		Peak:          peak,
		Peak1s:        a.peak1s(),
		Safeguard:     safeguard,
		CurrentTarget: a.target,
		Busy:          busy,
	}
	if o := a.cfg.Observer; o != nil && safeguard {
		o.OnSafeguardTrip(obs.SafeguardTrip{At: now, Busy: busy, Target: a.target})
	}
	prediction := a.ctrl.OnWindowEnd(w)
	target, clamp := a.clampTarget(prediction, busy)
	if o := a.cfg.Observer; o != nil {
		o.OnWindowEnd(obs.WindowEnd{
			At:         now,
			Seq:        a.windows,
			Samples:    len(a.samples),
			Features:   a.windowFeatures(peak),
			Peak1s:     w.Peak1s,
			Busy:       busy,
			Safeguard:  safeguard,
			Prediction: prediction,
			Target:     target,
			Clamp:      clamp,
		})
	}

	if a.cfg.RecordSeries {
		a.targetSeries.Add(int64(now), float64(target))
		a.peakSeries.Add(int64(now), float64(peak))
	}

	if !a.startResize(target, resumeWindow) {
		a.beginWindow()
	}
}

// clampTarget enforces Algorithm 1 line 20 (never assign fewer than
// busy+1 cores) and the allocation bounds, and pins the target to the
// full allocation while the long-term safeguard has harvesting paused.
// The second return explains which rule (if any) overrode the input.
func (a *Agent) clampTarget(target, busy int) (int, obs.ClampReason) {
	if a.HarvestingPaused() {
		return a.cfg.PrimaryAlloc, obs.ClampPaused
	}
	if a.degraded {
		// Degraded mode behaves like NoHarvest: the primaries keep their
		// full allocation until probation clears.
		return a.cfg.PrimaryAlloc, obs.ClampDegraded
	}
	reason := obs.ClampNone
	if m := busy + 1; target < m {
		target = m
		reason = obs.ClampBusyFloor
	}
	if target > a.cfg.PrimaryAlloc {
		target = a.cfg.PrimaryAlloc
		reason = obs.ClampAllocCap
	}
	return target, reason
}

// windowFeatures summarizes the current window's samples for the
// observer: the same five statistics the paper's learner consumes. Only
// called with an observer attached, so the median sort's scratch buffer
// never costs a disabled run anything.
func (a *Agent) windowFeatures(peak int) obs.Features {
	n := len(a.samples)
	if n == 0 {
		return obs.Features{}
	}
	f := obs.Features{Min: a.samples[0], Max: peak}
	sum := 0
	for _, s := range a.samples {
		if s < f.Min {
			f.Min = s
		}
		sum += s
	}
	f.Avg = float64(sum) / float64(n)
	varSum := 0.0
	for _, s := range a.samples {
		d := float64(s) - f.Avg
		varSum += d * d
	}
	f.Std = math.Sqrt(varSum / float64(n))
	a.sortScratch = append(a.sortScratch[:0], a.samples...)
	sort.Ints(a.sortScratch)
	if n%2 == 1 {
		f.Median = float64(a.sortScratch[n/2])
	} else {
		f.Median = float64(a.sortScratch[n/2-1]+a.sortScratch[n/2]) / 2
	}
	return f
}

// startResize begins a resize operation toward target, reporting true if
// the single-threaded agent is now occupied by it (the caller must not
// schedule anything; resumeAfterOp continues the selected loop). False
// means the operation completed synchronously (no-op or zero-latency).
func (a *Agent) startResize(target int, resume resumeKind) bool {
	if target == a.target && !a.splitDirty {
		return false
	}
	a.op = resizeOp{target: target, attempt: 0, resume: resume, active: true}
	if a.attemptResize() {
		return true
	}
	a.op.active = false
	return false
}

// attemptResize issues one hypercall for the in-flight operation and
// returns true if a continuation was scheduled (the agent is busy).
func (a *Agent) attemptResize() bool {
	res, err := a.hv.SetPrimaryCores(a.op.target)
	if err == nil {
		a.target = a.op.target
		a.splitDirty = false
		a.consecFailures = 0
		if !res.Applied {
			return false
		}
		a.resizeCount++
		if d := res.Latency + a.cfg.PostResizeSleep; d > 0 {
			a.loop.After(d, a.opDoneFn)
			return true
		}
		return false
	}

	// Transient hypercall failure: the split did not change.
	now := a.loop.Now()
	a.lastFault = now
	a.resizeFailures++
	p := &a.cfg.Resilience
	if a.op.attempt < p.MaxRetries {
		a.op.attempt++
		backoff := p.RetryBackoff << (a.op.attempt - 1)
		a.resizeRetries++
		if o := a.cfg.Observer; o != nil {
			o.OnResizeRetry(obs.ResizeRetry{
				At:      now,
				Target:  a.op.target,
				Attempt: a.op.attempt,
				Backoff: backoff,
			})
		}
		a.loop.After(res.Latency+backoff, a.opRetryFn)
		return true
	}

	// Retries exhausted: abandon the operation. The in-force split is
	// unchanged, so it stays legal; the next window decision tries again.
	a.resizesAborted++
	a.splitDirty = true
	a.consecFailures++
	if !a.degraded && a.consecFailures >= p.DegradeAfterFailures {
		a.enterDegraded(obs.DegradeResizeFailures)
	}
	if res.Latency > 0 {
		a.loop.After(res.Latency, a.opDoneFn)
		return true
	}
	return false
}

// opDone completes the in-flight resize operation and resumes the loop
// it interrupted.
func (a *Agent) opDone() {
	if a.dead {
		return
	}
	resume := a.op.resume
	a.op.active = false
	a.resumeAfterOp(resume)
}

// opRetry re-issues the in-flight operation after its backoff.
func (a *Agent) opRetry() {
	if a.dead {
		return
	}
	if a.attemptResize() {
		return
	}
	a.opDone()
}

// resumeAfterOp continues whichever loop the resize suspended.
func (a *Agent) resumeAfterOp(resume resumeKind) {
	switch resume {
	case resumeWindow:
		a.beginWindow()
	default: // resumePoll
		// The window edge is postponed past the time spent resizing, as
		// in the original reactive path.
		if now := a.loop.Now(); now > a.windowEnd {
			a.windowEnd = now
		}
		a.schedulePoll()
	}
}

// trimPeaks drops history older than PeakHistory.
func (a *Agent) trimPeaks(now sim.Time) {
	cut := 0
	for cut < len(a.peaks) && a.peaks[cut].at < now-a.cfg.PeakHistory {
		cut++
	}
	if cut > 0 {
		a.peaks = append(a.peaks[:0], a.peaks[cut:]...)
	}
}

// peak1s returns the maximum observed peak over the trailing history.
func (a *Agent) peak1s() int {
	p := 0
	for _, wp := range a.peaks {
		if wp.peak > p {
			p = wp.peak
		}
	}
	return p
}

// qosCheck is the long-term safeguard (paper §3.4): if at least
// QoSViolationFrac of primary vCPU dispatch waits exceed the threshold
// for QoSConsecutive consecutive windows, give every core back and pause
// harvesting.
func (a *Agent) qosCheck() {
	if a.dead {
		// The ticker keeps its cadence through the outage, but a dead
		// agent observes nothing (waits accumulate for the revival).
		return
	}
	waits := a.hv.DrainPrimaryWaits()
	bad := 0
	for _, w := range waits {
		if w > int64(a.cfg.QoSWaitThreshold) {
			bad++
		}
	}
	frac := 0.0
	if len(waits) > 0 {
		frac = float64(bad) / float64(len(waits))
	}
	if a.cfg.RecordSeries {
		a.qosViolations.Add(int64(a.loop.Now()), frac)
	}
	if frac >= a.cfg.QoSViolationFrac {
		a.qosStrikes++
	} else {
		a.qosStrikes = 0
	}
	if !a.cfg.LongTermSafeguard {
		return
	}
	// A pause expires implicitly (HarvestingPaused compares against the
	// clock), so the resume event is emitted from the first QoS check that
	// observes the expiry.
	if a.resumePending && !a.HarvestingPaused() {
		a.resumePending = false
		if o := a.cfg.Observer; o != nil {
			o.OnQoSResume(obs.QoSResume{At: a.loop.Now()})
		}
	}
	if a.qosStrikes >= a.cfg.QoSConsecutive && !a.HarvestingPaused() {
		a.qosTrips++
		a.qosStrikes = 0
		a.pausedUntil = a.loop.Now() + a.cfg.HarvestPause
		a.resumePending = true
		if o := a.cfg.Observer; o != nil {
			o.OnQoSTrip(obs.QoSTrip{
				At:         a.loop.Now(),
				Frac:       frac,
				Waits:      len(waits),
				PauseUntil: a.pausedUntil,
			})
		}
		a.target = a.cfg.PrimaryAlloc
		a.fireAndForgetResize(a.target)
	}
}
