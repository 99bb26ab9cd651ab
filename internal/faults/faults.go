// Package faults is the deterministic fault-injection layer: a single
// seeded injector that perturbs the three surfaces the EVMAgent depends
// on — the resize hypercall, the busy-core monitoring signal, and the
// agent process itself — so the resilience machinery in internal/core
// can be exercised, measured, and checked reproducibly.
//
// Everything is driven by a simrng stream carved off the scenario RNG, so
// a given (seed, Plan) pair produces a byte-identical fault schedule. A
// zero Plan is disabled: the harness then constructs no injector and
// draws nothing from the RNG, which keeps fault-free runs byte-identical
// to builds without this package in the loop.
package faults

import (
	"smartharvest/internal/core"
	"smartharvest/internal/grammar"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// Plan parameterizes the injector. The zero value injects nothing.
//
// Each field's `key` tag declares its -faults key (internal/grammar):
// fields print in declaration order, probabilities first, and a
// duration's default applies only while its fault class is enabled.
type Plan struct {
	// HypercallFailProb is the probability that an accepted resize
	// hypercall fails transiently (the split does not change).
	HypercallFailProb float64 `key:"hfail,prob,agent"`
	// HypercallDelayProb is the probability that a resize hypercall
	// suffers a latency spike, drawn log-normally (HypercallDelayMean/P99).
	HypercallDelayProb float64 `key:"hdelay,prob,agent"`

	// PollDropProb is the probability a busy-core reading is lost.
	PollDropProb float64 `key:"drop,prob,agent"`
	// PollStaleProb is the probability a reading repeats the previous
	// delivered value instead of the current one.
	PollStaleProb float64 `key:"stale,prob,agent"`
	// PollNoiseProb is the probability a reading is perturbed by ±1 core
	// (clamped to the valid range).
	PollNoiseProb float64 `key:"noise,prob,agent"`

	// StallProb is the per-window probability the agent stalls for
	// StallDur before the window starts.
	StallProb float64 `key:"stall,prob,agent"`
	// CrashProb is the per-window probability the agent crashes and
	// restarts after RestartDur, losing in-memory window state. The
	// model survives through a checkpoint round-trip unless LoseModel is
	// set.
	CrashProb float64 `key:"crash,prob,agent"`

	// Fleet-level faults, consumed by internal/cluster and internal/sched
	// (not by the per-server agent injector above).

	// ServerCrashProb is the per-tick (25 ms) per-server probability that
	// a server's whole harvesting stack goes down: its agent dies and
	// every scheduled job on it is orphaned. The server comes back after
	// ServerRestartDur. Tenant primary VMs ride out the outage — the
	// failure domain is the harvesting stack, not the host's
	// virtualization layer.
	ServerCrashProb float64 `key:"scrash,prob,fleet"`

	// GrantDropProb / GrantDelayProb perturb scheduler→server placement
	// grants: a dropped grant never lands (the scheduler must time out
	// and retry), a delayed one lands after GrantDelayDur subject to a
	// capacity re-check.
	GrantDropProb  float64 `key:"gdrop,prob,fleet"`
	GrantDelayProb float64 `key:"gdelay,prob,fleet"`

	// ReadStaleProb is the probability a HarvestedCores/ForecastCores
	// reading observed by the scheduler repeats the previously delivered
	// value for that server instead of the current one.
	ReadStaleProb float64 `key:"rstale,prob,fleet"`

	// ReconcileLossProb is the probability the reconcile pass loses one
	// server's message entirely — the scheduler skips evaluating that
	// server this tick.
	ReconcileLossProb float64 `key:"rloss,prob,fleet"`

	// The durations named above; each tag's default fills in while the
	// fault class it names with if= is enabled.
	HypercallDelayMean sim.Time `key:"hdelaymean,default=2ms,if=hdelay"`
	HypercallDelayP99  sim.Time `key:"hdelayp99,default=10ms,if=hdelay"`
	StallDur           sim.Time `key:"stalldur,default=60ms,if=stall"`
	RestartDur         sim.Time `key:"restartdur,default=250ms,if=crash"`
	ServerRestartDur   sim.Time `key:"srestartdur,default=500ms,if=scrash"`
	GrantDelayDur      sim.Time `key:"gdelaydur,default=10ms,if=gdelay"`
	LoseModel          bool     `key:"losemodel"`
}

// planKeys is the -faults grammar, derived from Plan's tags.
var planKeys = grammar.New[Plan]("faults")

// Keys lists the -faults keys in scope ("agent", "fleet" or "" for all).
func Keys(scope string) []string { return planKeys.Keys(scope) }

// AgentEnabled reports whether the plan injects any per-server agent
// faults (hypercall, poll-signal, and agent-process faults).
func (p Plan) AgentEnabled() bool { return planKeys.Any(p, "agent") }

// FleetEnabled reports whether the plan injects any fleet-level faults
// (server crashes or scheduler↔server control-plane faults).
func (p Plan) FleetEnabled() bool { return planKeys.Any(p, "fleet") }

// Enabled reports whether the plan injects anything at all.
func (p Plan) Enabled() bool {
	return p.AgentEnabled() || p.FleetEnabled()
}

// Scale returns the plan with every probability multiplied by f (clamped
// to 1) and durations unchanged — the knob the chaos experiments sweep.
func (p Plan) Scale(f float64) Plan { return planKeys.Scale(p, f) }

// withDefaults fills duration defaults for any enabled fault class.
func (p Plan) withDefaults() Plan {
	p = planKeys.Defaults(p)
	if p.HypercallDelayProb > 0 && p.HypercallDelayP99 < p.HypercallDelayMean {
		p.HypercallDelayP99 = p.HypercallDelayMean
	}
	return p
}

// ParsePlan parses the -faults CLI syntax: comma-separated key=value
// pairs of Plan's keys, probabilities in [0,1] and durations in Go
// syntax. The empty string and "none" are the zero Plan.
func ParsePlan(s string) (Plan, error) { return planKeys.Parse(s) }

// String renders the plan back in ParsePlan syntax (only non-zero keys),
// "none" for the zero plan.
func (p Plan) String() string { return grammar.Join(planKeys.Format(p), ",") }

// MarshalText implements encoding.TextMarshaler.
func (p Plan) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (p *Plan) UnmarshalText(text []byte) (err error) {
	*p, err = ParsePlan(string(text))
	return err
}

// tally is what both injectors share: the plan in force, the stream
// their draws come from, and the per-kind counts of what they injected.
type tally struct {
	plan   Plan
	rng    *simrng.Rand
	now    func() sim.Time
	obs    obs.Observer
	counts map[obs.FaultKind]uint64
}

// newTally checks plan and fills its defaults.
func newTally(plan Plan, rng *simrng.Rand, now func() sim.Time, observer obs.Observer) (tally, error) {
	if err := planKeys.Check(plan); err != nil {
		return tally{}, err
	}
	return tally{plan: plan.withDefaults(), rng: rng, now: now, obs: observer,
		counts: make(map[obs.FaultKind]uint64)}, nil
}

// Plan returns the (defaults-filled) plan in force.
func (t *tally) Plan() Plan { return t.plan }

// emit counts one injected fault and reports it to the observer.
func (t *tally) emit(kind obs.FaultKind, dur sim.Time, delta int) {
	t.counts[kind]++
	if t.obs != nil {
		t.obs.OnFaultInjected(obs.FaultInjected{At: t.now(), Kind: kind, Dur: dur, Delta: delta})
	}
}

// Total returns how many faults were injected across all kinds.
func (t *tally) Total() uint64 {
	var n uint64
	for _, v := range t.counts {
		n += v
	}
	return n
}

// Injector draws the fault schedule. It implements
// hypervisor.ResizeFaults and core.AgentFaults, and its SamplePoll
// wraps the busy-core signal. One injector serves one scenario; it is
// not safe for concurrent use (the sim loop is single-threaded).
type Injector struct {
	tally

	delayMu, delaySigma float64
	lastBusy            int // last delivered (possibly faulty) reading
}

// NewInjector builds an injector for the plan (defaults filled) drawing
// from rng. now supplies the current simulated time for event stamps;
// observer may be nil.
func NewInjector(plan Plan, rng *simrng.Rand, now func() sim.Time, observer obs.Observer) (*Injector, error) {
	t, err := newTally(plan, rng, now, observer)
	if err != nil {
		return nil, err
	}
	inj := &Injector{tally: t}
	if p := inj.plan; p.HypercallDelayProb > 0 {
		ratio := float64(p.HypercallDelayP99) / float64(p.HypercallDelayMean)
		inj.delayMu, inj.delaySigma = simrng.LogNormalParams(float64(p.HypercallDelayMean), ratio)
	}
	return inj, nil
}

// ResizeFault implements hypervisor.ResizeFaults: consulted once per
// accepted non-no-op resize request.
func (i *Injector) ResizeFault() (fail bool, extra sim.Time) {
	if p := i.plan.HypercallDelayProb; p > 0 && i.rng.Bool(p) {
		extra = sim.Time(i.rng.LogNormal(i.delayMu, i.delaySigma))
		i.emit(obs.FaultHypercallDelay, extra, 0)
	}
	if p := i.plan.HypercallFailProb; p > 0 && i.rng.Bool(p) {
		fail = true
		i.emit(obs.FaultHypercallFail, extra, 0)
	}
	return fail, extra
}

// SamplePoll perturbs one busy-core reading in [0, total]; -1 means the
// reading was dropped.
func (i *Injector) SamplePoll(busy, total int) int {
	if p := i.plan.PollDropProb; p > 0 && i.rng.Bool(p) {
		i.emit(obs.FaultPollDrop, 0, 0)
		return -1
	}
	if p := i.plan.PollStaleProb; p > 0 && i.rng.Bool(p) {
		i.emit(obs.FaultPollStale, 0, i.lastBusy-busy)
		return i.lastBusy
	}
	if p := i.plan.PollNoiseProb; p > 0 && i.rng.Bool(p) {
		delta := 1
		if i.rng.Bool(0.5) {
			delta = -1
		}
		noisy := busy + delta
		if noisy < 0 {
			noisy = 0
		}
		if noisy > total {
			noisy = total
		}
		i.emit(obs.FaultPollNoise, 0, noisy-busy)
		busy = noisy
	}
	i.lastBusy = busy
	return busy
}

// WindowFault implements core.AgentFaults: consulted once per learning
// window. A crash takes precedence over a stall in the same window.
func (i *Injector) WindowFault() core.AgentFault {
	if p := i.plan.CrashProb; p > 0 && i.rng.Bool(p) {
		i.emit(obs.FaultAgentCrash, i.plan.RestartDur, 0)
		return core.AgentFault{
			Crash:     true,
			Restart:   i.plan.RestartDur,
			LoseModel: i.plan.LoseModel,
		}
	}
	if p := i.plan.StallProb; p > 0 && i.rng.Bool(p) {
		i.emit(obs.FaultAgentStall, i.plan.StallDur, 0)
		return core.AgentFault{Stall: i.plan.StallDur}
	}
	return core.AgentFault{}
}

// FleetInjector draws the fleet-level fault schedule: server crashes and
// scheduler↔server control-plane faults. It is consulted by
// internal/cluster (crash ticks) and internal/sched (grant, read, and
// reconcile faults) and owns its own RNG stream, so per-server agent
// injectors and the fleet schedule never perturb each other's draws. A
// plan with no fleet faults enabled constructs no FleetInjector and
// draws nothing.
//
// Like Injector, it is single-threaded (the sim loop serializes all
// callers) and emits one obs.FaultInjected per injected fault; for
// server-scoped kinds the event's Delta field carries the server index.
type FleetInjector struct{ tally }

// NewFleetInjector builds a fleet injector for the plan (defaults
// filled) drawing from rng — give it a dedicated stream, not one shared
// with agent injectors. observer may be nil.
func NewFleetInjector(plan Plan, rng *simrng.Rand, now func() sim.Time, observer obs.Observer) (*FleetInjector, error) {
	t, err := newTally(plan, rng, now, observer)
	if err != nil {
		return nil, err
	}
	return &FleetInjector{t}, nil
}

// CrashTick draws one server's crash decision for the current tick and
// returns the downtime (zero: no crash). Call it once per up server per
// tick, in server order, so the schedule is a pure function of the seed.
func (i *FleetInjector) CrashTick(server int) sim.Time {
	if p := i.plan.ServerCrashProb; p > 0 && i.rng.Bool(p) {
		i.emit(obs.FaultServerCrash, i.plan.ServerRestartDur, server)
		return i.plan.ServerRestartDur
	}
	return 0
}

// GrantFault draws the fate of one placement grant: dropped entirely, or
// delayed by the returned duration (zero: delivered immediately). A drop
// takes precedence over a delay.
func (i *FleetInjector) GrantFault(server int) (drop bool, delay sim.Time) {
	if p := i.plan.GrantDropProb; p > 0 && i.rng.Bool(p) {
		i.emit(obs.FaultGrantDrop, 0, server)
		return true, 0
	}
	if p := i.plan.GrantDelayProb; p > 0 && i.rng.Bool(p) {
		i.emit(obs.FaultGrantDelay, i.plan.GrantDelayDur, server)
		return false, i.plan.GrantDelayDur
	}
	return false, 0
}

// ReadStale reports whether one capacity reading for server should
// repeat the previously delivered value (the caller holds that cache).
func (i *FleetInjector) ReadStale(server int) bool {
	if p := i.plan.ReadStaleProb; p > 0 && i.rng.Bool(p) {
		i.emit(obs.FaultReadStale, 0, server)
		return true
	}
	return false
}

// ReconcileLoss reports whether the reconcile message for server is lost
// this tick.
func (i *FleetInjector) ReconcileLoss(server int) bool {
	if p := i.plan.ReconcileLossProb; p > 0 && i.rng.Bool(p) {
		i.emit(obs.FaultReconcileLoss, 0, server)
		return true
	}
	return false
}

// Interface conformance.
var (
	_ hypervisor.ResizeFaults = (*Injector)(nil)
	_ core.AgentFaults        = (*Injector)(nil)
)
