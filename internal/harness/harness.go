// Package harness assembles full SmartHarvest experiments: it builds the
// simulated machine, the primary VMs and their workloads, the ElasticVM
// and its batch workload, and the EVMAgent with a chosen policy; runs the
// simulation for a configured duration; and collects the metrics the
// paper's tables and figures report.
package harness

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"smartharvest/internal/apps"
	"smartharvest/internal/check"
	"smartharvest/internal/core"
	"smartharvest/internal/faults"
	"smartharvest/internal/grammar"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/learner"
	"smartharvest/internal/metrics"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
	"smartharvest/internal/workload"
)

// BatchKind selects the ElasticVM workload.
type BatchKind int

const (
	// BatchCPUBully runs the synthetic all-you-can-eat consumer.
	BatchCPUBully BatchKind = iota
	// BatchHDInsight runs the ML-training job to completion.
	BatchHDInsight
	// BatchTeraSort runs the sort job to completion.
	BatchTeraSort
	// BatchFinite runs a finite CPU allotment (Scenario.BatchWork) with
	// checkpointed progress — the fleet scheduler's job unit
	// (apps.FiniteWork), runnable standalone for calibration.
	BatchFinite
	// BatchNone leaves the ElasticVM idle.
	BatchNone
)

// BatchKindNames is BatchKind's name table.
var BatchKindNames = grammar.Enum[BatchKind]{Pkg: "harness", What: "batch kind",
	Names: []string{"cpubully", "hdinsight", "terasort", "finite", "none"}}

func (b BatchKind) String() string { return BatchKindNames.String(b) }

// ParseBatchKind is the inverse of String.
func ParseBatchKind(s string) (BatchKind, error) { return BatchKindNames.Parse(s) }

// MarshalText implements encoding.TextMarshaler.
func (b BatchKind) MarshalText() ([]byte, error) { return BatchKindNames.MarshalText(b) }

// UnmarshalText implements encoding.TextUnmarshaler.
func (b *BatchKind) UnmarshalText(text []byte) error { return BatchKindNames.UnmarshalText(b, text) }

// ControllerFactory builds a policy for a primary allocation.
type ControllerFactory func(alloc int) core.Controller

// Scenario fully describes one experiment run.
type Scenario struct {
	// Name labels output.
	Name string
	// Primaries run one per DefaultPrimaryVMCores-core VM.
	Primaries []apps.PrimarySpec
	// Batch selects the ElasticVM workload (default CPUBully).
	Batch BatchKind
	// BatchWork is the finite allotment for BatchFinite, in core-time;
	// BatchFinite refuses zero. Ignored for other kinds.
	BatchWork sim.Time
	// BatchWidth caps BatchFinite's parallelism in cores (default 0 =
	// every ElasticVM vCPU); ignored for other kinds.
	BatchWidth int
	// Mechanism selects cpugroups or IPIs (default cpugroups).
	Mechanism hypervisor.Mechanism
	// Controller builds the policy. Nil runs SmartHarvest with the
	// paper's CSOAA learner, as an internal/cluster fleet does;
	// SmartHarvestPredictorFactory selects another peak predictor.
	Controller ControllerFactory
	// Duration is the measured run length; zero is refused.
	Duration sim.Time
	// Warmup precedes Duration; latencies and harvest averages exclude
	// it. Zero measures from t = 0.
	Warmup sim.Time
	// Window overrides the agent's learning window; zero keeps
	// core.DefaultConfig's 25 ms.
	Window sim.Time
	// PollInterval overrides the busy-poll period; zero keeps
	// core.DefaultConfig's 50 µs.
	PollInterval sim.Time
	// LongTermSafeguard enables the QoS guard, which the agent runs only
	// for a policy with Safeguards(). It is off unless set, whatever the
	// controller.
	LongTermSafeguard bool
	// QoSWaitThreshold and QoSViolationFrac override the long-term
	// safeguard's trip criterion; zero keeps core.DefaultConfig's (used
	// by the safeguard sensitivity ablation), and a negative (or NaN)
	// value is refused.
	QoSWaitThreshold sim.Time
	QoSViolationFrac float64
	// Churn schedules primary-VM arrivals and departures during the run,
	// exercising the paper's observation that tenants "arrive/depart at
	// any time". The machine is sized for the maximum concurrent
	// allocation; cores belonging to departed (or not-yet-arrived)
	// tenants are unallocated and flow to the ElasticVM.
	Churn []ChurnEvent
	// Seed drives all randomness; zero runs seed 1.
	Seed uint64
	// Observer receives the run's typed event stream (window decisions,
	// safeguard/QoS trips, resizes, churn, batch progress). Nil disables
	// observation at zero cost. Events are delivered synchronously on the
	// simulation goroutine, so a deterministic scenario produces a
	// byte-identical trace regardless of RunAll parallelism.
	Observer obs.Observer
	// Checker, when non-nil, verifies the run's event stream against the
	// safety invariants (see internal/check). Run binds it to the resolved
	// scenario, chains it after Observer, folds the hypervisor's end-of-run
	// state check into it, and reports the outcome in Result.Check. A
	// Checker verifies exactly one run; reuse is rejected at Bind.
	Checker *check.Checker
	// Faults injects deterministic hypervisor/signal/agent faults (see
	// internal/faults). The zero Plan is disabled and draws nothing from
	// the scenario RNG, so fault-free runs stay byte-identical.
	Faults faults.Plan
}

// ChurnEvent is one primary-VM arrival or departure.
type ChurnEvent struct {
	// At is the absolute simulated time of the event.
	At sim.Time
	// Depart removes the primary with this index (counting initial
	// Primaries first, then arrivals in event order). -1 means none.
	Depart int
	// Arrive adds a primary VM running this workload. Nil means none.
	Arrive *apps.PrimarySpec
}

// PrimaryResult holds one primary workload's outcome.
type PrimaryResult struct {
	Name      string
	Latency   metrics.Summary
	Phases    []metrics.Summary // per-phase, when the workload defines phases
	Offered   uint64
	Completed uint64
}

// Result is everything a scenario run produces.
type Result struct {
	Scenario  string
	Policy    string
	Mechanism string
	Duration  sim.Time

	Primaries []PrimaryResult

	Harvest

	// Batch job completion (for HDInsight/TeraSort/Finite).
	BatchFinished bool
	BatchTime     sim.Time
	// BatchProgress is the finite allotment's checkpointed completed
	// work (BatchFinite only; equals BatchWork when finished).
	BatchProgress sim.Time

	// Stats is the agent's counters at the end of the run.
	core.Stats
	// SimTime is the simulated time the run's loop executed: warm-up,
	// Duration and any time a finite batch job ran past them.
	SimTime sim.Time
	// Events counts every event the run's loop fired, warm-up included; a
	// skipped poll is an event not fired, so Events+PollsSkipped is the
	// same with run-ahead on or off. Diagnostic only, like Polls and
	// PollsSkipped: no table, CSV or trace reports them.
	Events uint64
	// FaultsInjected counts injected faults (zero on fault-free runs).
	FaultsInjected uint64

	// Reassignment-mechanism latency (Figure 14).
	Grow, Shrink metrics.Summary
	GrowCDF      []metrics.CDFPoint
	ShrinkCDF    []metrics.CDFPoint

	// Check is the invariant-verification report when Scenario.Checker was
	// attached; nil otherwise. Check.OK() reports a clean run.
	Check *check.Report
}

// Server is one simulated server as NewServer assembles it, for Run and
// for each server of an internal/cluster fleet.
type Server struct {
	Machine *hypervisor.Machine
	Agent   *core.Agent
	// Elastic is the ElasticVM: a vCPU per physical core (paper §3.2).
	Elastic *hypervisor.VM
	// Faults is the agent-fault injector, nil without agent-level faults.
	Faults *faults.Injector
	// Primaries holds every primary VM's workload in arrival order,
	// departed ones included.
	Primaries []*workload.Server

	loop                  *sim.Loop
	rng                   *simrng.Rand
	warmCoreTime, warmCPU sim.Time // the ElasticVM's accounting at MarkWarm
}

// Harvest is what a server's ElasticVM got over the measured span.
type Harvest struct {
	// AvgHarvestedCores is the time-weighted average number of cores the
	// ElasticVM held beyond its minimum, measured after warmup.
	AvgHarvestedCores float64
	// AvgElasticCores includes the minimum.
	AvgElasticCores float64
	// ElasticCPUSeconds is CPU actually executed by the ElasticVM after
	// warmup.
	ElasticCPUSeconds float64
}

// NewServer assembles one simulated server on loop: a machine of
// cfg.PrimaryAlloc+cfg.ElasticMin cores under mech, initial of them in
// the primary group, its ElasticVM, and an agent harvesting it with ctrl
// from a primary allocation of initial cores (cfg.PrimaryAlloc is the
// most it can follow). It draws the machine's seed from rng, then, if
// plan has agent-level faults, the seed of an agent-fault injector that
// reports to faultObs; AddPrimary splits rng too. cfg.Observer sees the
// machine's and the agent's events. With IPIs the agent does not sleep
// after a resize. The caller adds the primaries, starts the ElasticVM's
// workload and the agent, and schedules MarkWarm.
func NewServer(loop *sim.Loop, rng *simrng.Rand, mech hypervisor.Mechanism, plan faults.Plan,
	faultObs obs.Observer, ctrl core.Controller, cfg core.Config, initial int,
) (*Server, error) {
	total := cfg.PrimaryAlloc + cfg.ElasticMin
	hvCfg := hypervisor.DefaultConfig(total)
	hvCfg.Mechanism = mech
	hvCfg.Seed = rng.Uint64()
	hvCfg.Observer = cfg.Observer
	s := &Server{loop: loop, rng: rng}
	var err error
	// The injector (and its RNG draw) exists only when the plan injects
	// agent-level faults, so a fault-free or fleet-only plan leaves the
	// run byte-identical to one that never heard of fault injection.
	if plan.AgentEnabled() {
		if s.Faults, err = faults.NewInjector(plan, simrng.New(rng.Uint64()), loop.Now, faultObs); err != nil {
			return nil, err
		}
		hvCfg.Faults = s.Faults
		cfg.Faults = s.Faults
	}
	if s.Machine, err = hypervisor.New(loop, hvCfg); err != nil {
		return nil, err
	}
	s.Machine.SetInitialSplit(initial)
	if mech == hypervisor.IPI {
		cfg.PostResizeSleep = 0
	}
	// The injector also routes the busy-core signal, so polls can be
	// dropped, staled or perturbed; only the injector-free adapter is
	// core.EventDrivenBusy and lets the agent run its poll ahead.
	var hv core.Hypervisor = machineHV{s.Machine}
	if s.Faults != nil {
		hv = faultyHV{machineHV{s.Machine}, s.Machine, s.Faults}
	}
	if s.Agent, err = core.NewAgent(loop, hv, ctrl, cfg); err != nil {
		return nil, err
	}
	if initial != cfg.PrimaryAlloc {
		// The cores beyond the initial allocation stay unallocated until
		// arrivals claim them.
		if err := s.Agent.SetPrimaryAlloc(initial); err != nil {
			return nil, err
		}
	}
	s.Elastic = s.Machine.AddVM("elastic", hypervisor.ElasticGroup, total, total)
	return s, nil
}

// AddPrimary adds a DefaultPrimaryVMCores-core primary VM running spec,
// builds its workload on a split of the server's RNG (latencies recorded
// from warmup on) and starts it.
func (s *Server) AddPrimary(spec apps.PrimarySpec, warmup sim.Time) (*workload.Server, error) {
	vm := s.Machine.AddVM(fmt.Sprintf("%s-%d", spec.Name, len(s.Primaries)),
		hypervisor.PrimaryGroup, DefaultPrimaryVMCores, DefaultPrimaryVMCores)
	p, err := spec.Build(s.loop, vm, s.rng.Split(), warmup)
	if err != nil {
		return nil, fmt.Errorf("harness: building %s: %w", spec.Name, err)
	}
	p.Start()
	s.Primaries = append(s.Primaries, p)
	return p, nil
}

// Close stops every primary's input producer (workload.Server.Close).
func (s *Server) Close() {
	for _, p := range s.Primaries {
		p.Close()
	}
}

// Live counts the primaries that have not departed.
func (s *Server) Live() int {
	n := 0
	for _, p := range s.Primaries {
		if !p.VM().Removed() {
			n++
		}
	}
	return n
}

// MarkWarm snapshots the ElasticVM's accounting at the end of warm-up,
// where Harvest measures from.
func (s *Server) MarkWarm() {
	s.warmCoreTime = s.Machine.CoreTime(hypervisor.ElasticGroup)
	s.warmCPU = s.Elastic.CPUTime()
}

// HarvestedCoreTime is the core-time the ElasticVM held beyond its
// minimum over the measured span since MarkWarm. It is exact, so an
// ElasticVM that never grew reads zero.
func (s *Server) HarvestedCoreTime(measured sim.Time) sim.Time {
	return max(0, s.Machine.CoreTime(hypervisor.ElasticGroup)-s.warmCoreTime-ElasticMin*measured)
}

// Harvest is the ElasticVM's harvest since MarkWarm, averaged over the
// measured span that followed it.
func (s *Server) Harvest(measured sim.Time) Harvest {
	var h Harvest
	if measured > 0 {
		h.AvgElasticCores = float64(s.Machine.CoreTime(hypervisor.ElasticGroup)-s.warmCoreTime) / float64(measured)
		h.ElasticCPUSeconds = (s.Elastic.CPUTime() - s.warmCPU).Seconds()
	}
	h.AvgHarvestedCores = max(0, h.AvgElasticCores-ElasticMin)
	return h
}

// HarvestedCores is the server's harvested capacity right now: the
// elastic group's physical cores beyond the ElasticVM's minimum. This is
// what a fleet scheduler may grant to jobs.
func (s *Server) HarvestedCores() int {
	return max(0, s.Machine.GroupCores(hypervisor.ElasticGroup)-ElasticMin)
}

// ForecastCores is the agent's forecast of HarvestedCores for the next
// learning window: its in-force primary-core target subtracted from the
// harvestable pool. When the safeguards pin the target to the full
// allocation the forecast collapses to zero, which is exactly the signal
// a prediction-aware placement policy wants.
func (s *Server) ForecastCores() int {
	return max(0, s.Machine.TotalCores()-ElasticMin-s.Agent.Target())
}

// machineHV adapts the simulated machine to the agent's black-box
// hypervisor contract.
type machineHV struct {
	m *hypervisor.Machine
}

func (a machineHV) TotalCores() int       { return a.m.TotalCores() }
func (a machineHV) BusyPrimaryCores() int { return a.m.BusyCores(hypervisor.PrimaryGroup) }
func (a machineHV) SetPrimaryCores(n int) (core.ResizeResult, error) {
	out, err := a.m.SetPrimaryCores(n)
	if err != nil {
		return core.ResizeResult{}, err
	}
	return core.ResizeResult{
		Applied: out.Status == hypervisor.ResizeApplied,
		Latency: out.Latency,
	}, nil
}
func (a machineHV) SetPrimaryWaitThreshold(t sim.Time) { a.m.SetPrimaryWaitThreshold(t) }
func (a machineHV) DrainPrimaryWaitCounts() (int, int) { return a.m.DrainPrimaryWaitCounts() }

// BusyChangesOnlyInLoopEvents implements core.EventDrivenBusy: BusyCores
// is a count the machine updates only in dispatch, slice-end, preemption
// and core-move events of its loop.
func (machineHV) BusyChangesOnlyInLoopEvents() {}

var (
	_ core.EventDrivenBusy    = machineHV{}
	_ core.PrimaryWaitCounter = machineHV{}
	_ core.PrimaryWaitCounter = faultyHV{}
)

// faultyHV embeds the Hypervisor interface, not machineHV, so the
// run-ahead marker is not promoted: SamplePoll draws from the injector's
// RNG on every poll, and skipping a poll would shift every later draw.
// The embedding hides the wait counter too, so faultyHV forwards it.
type faultyHV struct {
	core.Hypervisor
	m   *hypervisor.Machine
	inj *faults.Injector
}

// Compile-time: faultyHV must not be a core.EventDrivenBusy. Were the
// marker method declared on it (depth 1 below), or promoted into it from
// an embedded machineHV (depth 2), one of these selectors would be
// ambiguous and the package would not build.
type nestedMarker struct{ core.EventDrivenBusy }

var (
	_ = struct {
		faultyHV
		core.EventDrivenBusy
	}.BusyChangesOnlyInLoopEvents
	_ = struct {
		faultyHV
		nestedMarker
	}.BusyChangesOnlyInLoopEvents
)

func (a faultyHV) BusyPrimaryCores() int {
	// A perturbed reading stays within the primary group's current size:
	// the sensor misreads a bitmap of that many slots, it cannot invent
	// cores the group does not hold.
	return a.inj.SamplePoll(a.m.BusyCores(hypervisor.PrimaryGroup), a.m.GroupCores(hypervisor.PrimaryGroup))
}

func (a faultyHV) SetPrimaryWaitThreshold(t sim.Time) { a.m.SetPrimaryWaitThreshold(t) }
func (a faultyHV) DrainPrimaryWaitCounts() (int, int) { return a.m.DrainPrimaryWaitCounts() }

// DefaultPrimaryVMCores is each primary VM's allocation.
const DefaultPrimaryVMCores = 10

// ElasticMin is the ElasticVM's minimum core count, on a scenario's
// server and on each server of an internal/cluster fleet.
const ElasticMin = 1

func (s *Scenario) applyDefaults() {
	agent := core.DefaultConfig(DefaultPrimaryVMCores, ElasticMin)
	if s.Window == 0 {
		s.Window = agent.Window
	}
	if s.PollInterval == 0 {
		s.PollInterval = agent.PollInterval
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Controller == nil {
		s.Controller = SmartHarvestFactory(core.SmartHarvestOptions{})
	}
}

// validate runs after applyDefaults; what it rejects is explicitly bad
// input, a zero that has no meaning included. Every error wraps one of
// the package's sentinel errors (see errors.go), except the two
// fleet-scope refusals at the end.
func (s *Scenario) validate() error {
	if len(s.Primaries) == 0 {
		return s.scenarioErr("Primaries", ErrNoPrimaries, "")
	}
	if s.Duration <= 0 {
		return s.scenarioErr("Duration", ErrBadDuration, "Duration=%v", s.Duration)
	}
	if s.Warmup < 0 {
		return s.scenarioErr("Warmup", ErrBadDuration, "Warmup=%v", s.Warmup)
	}
	if s.Duration > math.MaxInt64-s.Warmup {
		return s.scenarioErr("Duration", ErrBadDuration,
			"Warmup %v + Duration %v overflows the clock", s.Warmup, s.Duration)
	}
	if s.Window <= 0 || s.PollInterval <= 0 {
		return s.scenarioErr("Window/PollInterval", ErrBadWindow,
			"Window=%v PollInterval=%v", s.Window, s.PollInterval)
	}
	if s.Window < s.PollInterval {
		return s.scenarioErr("Window", ErrBadWindow,
			"Window %v shorter than PollInterval %v", s.Window, s.PollInterval)
	}
	if !BatchKindNames.Valid(s.Batch) {
		return s.scenarioErr("Batch", ErrUnknownBatch, "BatchKind(%d)", int(s.Batch))
	}
	if s.BatchWork < 0 || s.BatchWidth < 0 || s.Batch == BatchFinite && s.BatchWork == 0 {
		return s.scenarioErr("BatchWork/BatchWidth", ErrUnknownBatch,
			"BatchWork=%v BatchWidth=%d", s.BatchWork, s.BatchWidth)
	}
	if s.QoSWaitThreshold < 0 || !(s.QoSViolationFrac >= 0) {
		return s.scenarioErr("QoSWaitThreshold/QoSViolationFrac", ErrBadQoS,
			"QoSWaitThreshold=%v QoSViolationFrac=%v", s.QoSWaitThreshold, s.QoSViolationFrac)
	}
	for i, ev := range s.Churn {
		if ev.Depart < -1 {
			return s.scenarioErr("Churn", ErrBadChurn,
				"event %d: departure index %d", i, ev.Depart)
		}
	}
	// Fleet-level faults (server crashes, grant drops, stale reads) have
	// no meaning on a single-server scenario — rejecting them keeps a
	// mistyped plan from silently injecting nothing. They are refused
	// here, before the run binds its Checker or emits its first event.
	if s.Faults.FleetEnabled() {
		return fmt.Errorf("harness: scenario %q: fleet-level fault plan %q requires a multi-server fleet (internal/cluster); single-server scenarios accept agent-level keys only", s.Name, s.Faults)
	}
	return nil
}

// maxConcurrentAlloc walks the churn schedule and returns the largest
// concurrent primary allocation the machine must be able to host.
func (s *Scenario) maxConcurrentAlloc() (int, error) {
	count := len(s.Primaries)
	peak := count
	total := count
	events := append([]ChurnEvent(nil), s.Churn...)
	sort.Slice(events, func(i, j int) bool { return events[i].At < events[j].At })
	for _, ev := range events {
		if ev.Arrive != nil {
			count++
			total++
			peak = max(peak, count)
		}
		if ev.Depart >= 0 {
			if ev.Depart >= total {
				return 0, s.scenarioErr("Churn", ErrBadChurn,
					"departure index %d out of range [0, %d)", ev.Depart, total)
			}
			count--
			if count < 1 {
				return 0, s.scenarioErr("Churn", ErrBadChurn, "would leave no primary VMs")
			}
		}
	}
	return peak * DefaultPrimaryVMCores, nil
}

// Run executes the scenario and returns its results. It works on a copy
// of s, so the caller's Scenario is never mutated. Validation failures
// return a *ScenarioError wrapping one of the package's sentinel errors
// (ErrNoPrimaries, ErrBadDuration, ...), testable with errors.Is.
func Run(s Scenario) (*Result, error) {
	s.applyDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	rng := simrng.New(s.Seed)

	alloc := len(s.Primaries) * DefaultPrimaryVMCores
	maxAlloc, err := s.maxConcurrentAlloc()
	if err != nil {
		return nil, err
	}

	loop := sim.NewLoop()

	ctrl := s.Controller(maxAlloc)
	agentCfg := core.DefaultConfig(maxAlloc, ElasticMin)
	agentCfg.Window = s.Window
	agentCfg.PollInterval = s.PollInterval
	agentCfg.LongTermSafeguard = s.LongTermSafeguard
	if s.QoSWaitThreshold > 0 {
		agentCfg.QoSWaitThreshold = s.QoSWaitThreshold
	}
	if s.QoSViolationFrac > 0 {
		agentCfg.QoSViolationFrac = s.QoSViolationFrac
	}
	if s.Checker != nil {
		s.Observer = obs.Multi(s.Observer, s.Checker)
	}
	agentCfg.Observer = s.Observer
	// The controller is sized for the maximum concurrent allocation so it
	// can follow churn; the agent starts at the initial allocation.
	srv, err := NewServer(loop, rng, s.Mechanism, s.Faults, s.Observer, ctrl, agentCfg, alloc)
	if err != nil {
		return nil, err
	}
	// After RunUntil the loop may step on until a batch job finishes, so
	// the primaries' producers stop only on the way out.
	defer srv.Close()
	if s.Checker != nil {
		// Assembling the server emitted nothing, so the checker is bound
		// before the first event, to the values the agent runs with.
		c := srv.Agent.Config()
		if err := s.Checker.Bind(check.Config{
			TotalCores:        maxAlloc + ElasticMin,
			PrimaryAlloc:      alloc,
			PrimaryVMCores:    DefaultPrimaryVMCores,
			ElasticMin:        ElasticMin,
			HarvestPause:      c.HarvestPause,
			QoSViolationFrac:  c.QoSViolationFrac,
			LongTermSafeguard: c.LongTermSafeguard,
			MaxRetries:        c.Resilience.MaxRetries,
			RetryBackoff:      c.Resilience.RetryBackoff,
			Probation:         c.Resilience.Probation,
		}); err != nil {
			return nil, err
		}
	}
	// Announce the controller's peak predictor at the head of the trace,
	// unless it is the paper's CSOAA, so default traces carry no such line.
	if sh, ok := ctrl.(*core.SmartHarvest); ok && s.Observer != nil && sh.Predictor().Name() != "csoaa" {
		s.Observer.OnPredictorInfo(obs.PredictorInfo{
			Name:    sh.Predictor().Name(),
			Classes: sh.Predictor().Classes(),
		})
	}

	for _, spec := range s.Primaries {
		if _, err := srv.AddPrimary(spec, s.Warmup); err != nil {
			return nil, err
		}
	}

	var batchJob *apps.BatchJob
	var finite *apps.FiniteWork
	var finiteDoneAt sim.Time
	var done func() bool // a finite batch job's completion; nil for the others
	switch s.Batch {
	case BatchCPUBully:
		apps.NewCPUBully(srv.Elastic).Start()
	case BatchHDInsight:
		batchJob = apps.HDInsight(loop, srv.Elastic, nil)
	case BatchTeraSort:
		batchJob = apps.TeraSort(loop, srv.Elastic, nil)
	case BatchFinite:
		finite = apps.NewFiniteWork(srv.Elastic, s.BatchWork, func() { finiteDoneAt = loop.Now() })
		if s.BatchWidth > 0 {
			finite.LimitParallelism(s.BatchWidth)
		}
		finite.Start()
		done = finite.Done
	case BatchNone:
	default:
		// Unreachable: validate rejects unknown kinds up front.
		return nil, s.scenarioErr("Batch", ErrUnknownBatch, "BatchKind(%d)", int(s.Batch))
	}
	if batchJob != nil {
		if o := s.Observer; o != nil {
			job := batchJob.Name()
			batchJob.SetPhaseHook(func(phase, phases int, finished bool) {
				o.OnBatchProgress(obs.BatchProgress{
					At: loop.Now(), Job: job,
					Phase: phase, Phases: phases, Finished: finished,
				})
			})
		}
		batchJob.Start()
		done = batchJob.Finished
	}

	srv.Agent.Start()

	// Schedule VM churn.
	var churnErr error
	for _, ev := range s.Churn {
		loop.At(ev.At, func() {
			if churnErr != nil {
				return
			}
			if ev.Arrive != nil {
				if _, churnErr = srv.AddPrimary(*ev.Arrive, s.Warmup); churnErr != nil {
					return
				}
			}
			if ev.Depart >= 0 {
				if ev.Depart >= len(srv.Primaries) || srv.Primaries[ev.Depart].VM().Removed() {
					churnErr = fmt.Errorf("harness: churn departure %d invalid", ev.Depart)
					return
				}
				srv.Machine.RemoveVM(srv.Primaries[ev.Depart].VM())
			}
			live := srv.Live()
			if err := srv.Agent.SetPrimaryAlloc(live * DefaultPrimaryVMCores); err != nil {
				churnErr = err
				return
			}
			if o := s.Observer; o != nil {
				arrived := ""
				if ev.Arrive != nil {
					arrived = ev.Arrive.Name
				}
				o.OnChurnApplied(obs.ChurnApplied{
					At:            loop.Now(),
					Arrived:       arrived,
					Departed:      ev.Depart,
					LivePrimaries: live,
					PrimaryAlloc:  live * DefaultPrimaryVMCores,
				})
			}
		})
	}
	loop.At(s.Warmup, srv.MarkWarm)

	end := s.Warmup + s.Duration
	loop.RunUntil(end)
	if churnErr != nil {
		return nil, churnErr
	}
	// For completion-time experiments, keep running until the batch job
	// finishes (the primaries keep serving).
	if done != nil {
		for !done() && loop.Now() < end+10*60*sim.Second && loop.Step() {
		}
	}

	res := &Result{
		Scenario:  s.Name,
		Policy:    ctrl.Name(),
		Mechanism: s.Mechanism.String(),
		Duration:  s.Duration,
		Harvest:   srv.Harvest(loop.Now() - s.Warmup),
		Stats:     srv.Agent.Stats(),
		SimTime:   loop.Now(),
		Events:    loop.Fired(),
	}
	for _, p := range srv.Primaries {
		pr := PrimaryResult{
			Name:      p.Name(),
			Latency:   p.Latency().Summarize(),
			Offered:   p.Offered(),
			Completed: p.Completed(),
		}
		for i := 0; i < p.NumPhases(); i++ {
			pr.Phases = append(pr.Phases, p.PhaseLatency(i).Summarize())
		}
		res.Primaries = append(res.Primaries, pr)
	}
	if batchJob != nil {
		res.BatchFinished = batchJob.Finished()
		res.BatchTime = batchJob.FinishedAt()
	}
	if finite != nil {
		res.BatchFinished = finite.Done()
		res.BatchTime = finiteDoneAt
		res.BatchProgress = finite.Completed()
	}
	if srv.Faults != nil {
		res.FaultsInjected = srv.Faults.Total()
	}
	res.Grow = srv.Machine.GrowLatency().Summarize()
	res.Shrink = srv.Machine.ShrinkLatency().Summarize()
	res.GrowCDF = srv.Machine.GrowLatency().CDF()
	res.ShrinkCDF = srv.Machine.ShrinkLatency().CDF()
	if s.Checker != nil {
		// Fold the hypervisor's end-of-run state self-check into the
		// report: the event stream can look legal while the machine's
		// internal accounting drifted.
		if err := srv.Machine.CheckInvariants(); err != nil {
			s.Checker.Flag(check.InvMachineState, loop.Now(), err.Error())
		}
		res.Check = s.Checker.Finish()
	}
	return res, nil
}

// P99 returns the P99 latency (ns) of primary i.
func (r *Result) P99(i int) int64 { return r.Primaries[i].Latency.P99 }

// RunSpeedup runs the scenario twice — once with the given policy and
// once with NoHarvest (ElasticVM pinned to its one-core minimum, and
// unobserved: s's Observer and Checker see only the first run) — and
// returns the batch job's completion-time speedup, as in the paper's
// Figure 6. Callers that want the two runs on the RunAll
// worker pool can instead declare the pair (s, BaselineScenario(s)) and
// combine the results with Speedup.
func RunSpeedup(s Scenario) (speedup float64, with, baseline *Result, err error) {
	if s.Batch != BatchHDInsight && s.Batch != BatchTeraSort {
		return 0, nil, nil, fmt.Errorf("harness: speedup needs a finite batch job")
	}
	with, err = Run(s)
	if err != nil {
		return 0, nil, nil, err
	}
	baseline, err = Run(BaselineScenario(s))
	if err != nil {
		return 0, nil, nil, err
	}
	speedup, err = Speedup(with, baseline)
	if err != nil {
		return 0, with, baseline, err
	}
	return speedup, with, baseline, nil
}

// Controllers — convenience factories for the standard policies.

// SmartHarvestFactory builds the paper's learner with options.
func SmartHarvestFactory(opts core.SmartHarvestOptions) ControllerFactory {
	return func(alloc int) core.Controller { return core.NewSmartHarvest(alloc, opts) }
}

// FixedBufferFactory builds the PerfIso-style baseline with buffer k.
func FixedBufferFactory(k int) ControllerFactory {
	return func(alloc int) core.Controller { return core.NewFixedBuffer(alloc, k) }
}

// PrevPeakFactory builds the heuristic baseline over n windows.
func PrevPeakFactory(n int, returnOne bool) ControllerFactory {
	return func(alloc int) core.Controller { return core.NewPrevPeak(alloc, n, returnOne) }
}

// NoHarvestFactory builds the null policy.
func NoHarvestFactory() ControllerFactory {
	return func(alloc int) core.Controller { return core.NewNoHarvest(alloc) }
}

// EWMAFactory builds the smoothing baseline.
func EWMAFactory(alpha float64, margin int) ControllerFactory {
	return func(alloc int) core.Controller { return core.NewEWMAController(alloc, alpha, margin) }
}

// policy is one row of the -policy table: the paper's learner or one of
// its baselines. A policy that takes an argument ("name:arg") names it,
// says what it counts and gives its default and least value; a fixed
// buffer may also not exceed the allocation.
type policy struct {
	name, arg, what string // arg is "" for a policy that takes none
	def, least      int
	atMostAlloc     bool
	factory         func(arg int, pred PredictorKind) ControllerFactory
}

// policies is the -policy table of cmd/smartharvest and cmd/hostagent.
var policies = []policy{
	{name: "smartharvest", factory: func(_ int, pred PredictorKind) ControllerFactory {
		return SmartHarvestPredictorFactory(pred, core.SmartHarvestOptions{})
	}},
	{name: "fixedbuffer", arg: "k", what: "buffer cores", def: 4, least: 0, atMostAlloc: true,
		factory: func(k int, _ PredictorKind) ControllerFactory { return FixedBufferFactory(k) }},
	{name: "prevpeak", arg: "n", what: "windows", def: 1, least: 1,
		factory: func(n int, _ PredictorKind) ControllerFactory { return PrevPeakFactory(n, n > 1) }},
	{name: "ewma", factory: func(int, PredictorKind) ControllerFactory {
		return EWMAFactory(learner.EWMAAlpha, learner.EWMAMargin)
	}},
	{name: "noharvest", factory: func(int, PredictorKind) ControllerFactory { return NoHarvestFactory() }},
}

// PolicyUsage renders the -policy table for a flag's usage text.
func PolicyUsage() string {
	specs := make([]string, len(policies))
	for i, p := range policies {
		specs[i] = p.name
		if p.arg != "" {
			specs[i] = fmt.Sprintf("%s[:%s] (%s, default %d)", p.name, p.arg, p.what, p.def)
		}
	}
	return strings.Join(specs, ", ")
}

// ParsePolicy parses a -policy spec, "name[:arg]" (see PolicyUsage), for
// a primary allocation of alloc cores. predictor, when not empty, names
// smartharvest's peak predictor and is refused with any other policy.
// Everything the controller constructors would panic on is refused here,
// so the factory builds at alloc without panicking.
func ParsePolicy(spec string, alloc int, predictor string) (ControllerFactory, error) {
	name, arg, _ := strings.Cut(spec, ":")
	i := slices.IndexFunc(policies, func(p policy) bool { return p.name == name })
	if i < 0 {
		return nil, fmt.Errorf("harness: unknown policy %q (want %s)", name, PolicyUsage())
	}
	p := policies[i]
	if alloc < 1 {
		return nil, fmt.Errorf("harness: policy %s needs at least one primary core, have %d", name, alloc)
	}
	n := p.def
	if arg != "" {
		if p.arg == "" {
			return nil, fmt.Errorf("harness: policy %s takes no argument (got %q)", name, arg)
		}
		v, err := strconv.Atoi(arg)
		if err != nil {
			return nil, fmt.Errorf("harness: bad policy argument %q: %v", arg, err)
		}
		n = v
	}
	if n < p.least || p.atMostAlloc && n > alloc {
		limit := "no upper bound"
		if p.atMostAlloc {
			limit = fmt.Sprintf("at most the %d-core allocation", alloc)
		}
		return nil, fmt.Errorf("harness: policy %s: %d %s is out of range (at least %d, %s)", name, n, p.what, p.least, limit)
	}
	kind := PredictorCSOAA
	if predictor != "" {
		if name != "smartharvest" {
			return nil, fmt.Errorf("harness: a predictor applies only to policy smartharvest (got %q)", name)
		}
		var err error
		if kind, err = ParsePredictor(predictor); err != nil {
			return nil, err
		}
	}
	return p.factory(n, kind), nil
}
