// Package harness assembles full SmartHarvest experiments: it builds the
// simulated machine, the primary VMs and their workloads, the ElasticVM
// and its batch workload, and the EVMAgent with a chosen policy; runs the
// simulation for a configured duration; and collects the metrics the
// paper's tables and figures report.
package harness

import (
	"fmt"
	"sort"

	"smartharvest/internal/apps"
	"smartharvest/internal/check"
	"smartharvest/internal/core"
	"smartharvest/internal/faults"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/market"
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

func (b BatchKind) String() string {
	switch b {
	case BatchCPUBully:
		return "cpubully"
	case BatchHDInsight:
		return "hdinsight"
	case BatchTeraSort:
		return "terasort"
	case BatchFinite:
		return "finite"
	case BatchNone:
		return "none"
	default:
		return fmt.Sprintf("BatchKind(%d)", int(b))
	}
}

// ParseBatchKind is the inverse of String.
func ParseBatchKind(s string) (BatchKind, error) {
	switch s {
	case "cpubully":
		return BatchCPUBully, nil
	case "hdinsight":
		return BatchHDInsight, nil
	case "terasort":
		return BatchTeraSort, nil
	case "finite":
		return BatchFinite, nil
	case "none":
		return BatchNone, nil
	default:
		return 0, fmt.Errorf("harness: unknown batch kind %q (want cpubully, hdinsight, terasort, finite, or none)", s)
	}
}

// MarshalText implements encoding.TextMarshaler.
func (b BatchKind) MarshalText() ([]byte, error) {
	if b < BatchCPUBully || b > BatchNone {
		return nil, fmt.Errorf("harness: cannot marshal %s", b)
	}
	return []byte(b.String()), nil
}

// UnmarshalText implements encoding.TextUnmarshaler.
func (b *BatchKind) UnmarshalText(text []byte) error {
	v, err := ParseBatchKind(string(text))
	if err != nil {
		return err
	}
	*b = v
	return nil
}

// ControllerFactory builds a policy for a primary allocation.
type ControllerFactory func(alloc int) core.Controller

// Scenario fully describes one experiment run.
type Scenario struct {
	// Name labels output.
	Name string
	// Primaries run one per 10-core VM (PrimaryVMCores overridable).
	Primaries []apps.PrimarySpec
	// PrimaryVMCores is the allocation per primary VM (default 10).
	PrimaryVMCores int
	// ElasticMin is the ElasticVM's minimum core count (default 1).
	ElasticMin int
	// Batch selects the ElasticVM workload (default CPUBully).
	Batch BatchKind
	// BatchWork is the finite allotment for BatchFinite, in core-time
	// (default 8 s); ignored for other kinds.
	BatchWork sim.Time
	// BatchWidth caps BatchFinite's parallelism in cores (default 0 =
	// every ElasticVM vCPU); ignored for other kinds.
	BatchWidth int
	// Mechanism selects cpugroups or IPIs (default cpugroups).
	Mechanism hypervisor.Mechanism
	// Controller builds the policy (default SmartHarvest).
	Controller ControllerFactory
	// Predictor selects the SmartHarvest peak predictor for the default
	// controller (default CSOAA, the paper's learner). Setting it
	// together with an explicit Controller is rejected
	// (ErrPredictorConflict): the predictor rides inside the default
	// SmartHarvest controller, so an explicit factory would silently
	// ignore it. Use SmartHarvestPredictorFactory to combine the two.
	Predictor PredictorKind
	// Duration is the measured run length (default 20 s simulated).
	Duration sim.Time
	// Warmup precedes Duration; latencies and harvest averages exclude
	// it (default 2 s).
	Warmup sim.Time
	// Window overrides the agent's learning window (default 25 ms).
	Window sim.Time
	// PollInterval overrides the busy-poll period (default 50 µs).
	PollInterval sim.Time
	// LongTermSafeguard enables the QoS guard (meaningful for policies
	// with Safeguards(); default on for SmartHarvest-like policies).
	LongTermSafeguard bool
	// CollectBusyStats additionally samples busy primary cores at the
	// poll interval to produce Table 1's statistics.
	CollectBusyStats bool
	// RecordSeries captures per-window target/peak series (Figure 7).
	RecordSeries bool
	// QoSWaitThreshold and QoSViolationFrac override the long-term
	// safeguard's trip criterion when non-zero (used by the safeguard
	// sensitivity ablation).
	QoSWaitThreshold sim.Time
	QoSViolationFrac float64
	// Churn schedules primary-VM arrivals and departures during the run,
	// exercising the paper's observation that tenants "arrive/depart at
	// any time". The machine is sized for the maximum concurrent
	// allocation; cores belonging to departed (or not-yet-arrived)
	// tenants are unallocated and flow to the ElasticVM.
	Churn []ChurnEvent
	// Seed drives all randomness.
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
	// Pools is a harvested-capacity pool plan (see internal/market).
	// Pools are an economy over a fleet's shared harvest; a single-server
	// scenario has no fleet scheduler to run them, so any non-zero plan
	// is rejected up front rather than silently ignored.
	Pools market.Config
	// Resilience overrides the agent's fault-response policy; nil keeps
	// core.DefaultResilience.
	Resilience *core.ResiliencePolicy
}

// ScenarioOption adjusts a Scenario at Run time without mutating the
// caller's copy — the functional-option face of the same knobs.
type ScenarioOption func(*Scenario)

// WithObserver attaches an observer to the run.
func WithObserver(o obs.Observer) ScenarioOption {
	return func(s *Scenario) { s.Observer = o }
}

// WithSeed overrides the scenario's seed.
func WithSeed(seed uint64) ScenarioOption {
	return func(s *Scenario) { s.Seed = seed }
}

// WithPredictor selects the SmartHarvest peak predictor for the run (see
// Scenario.Predictor).
func WithPredictor(p PredictorKind) ScenarioOption {
	return func(s *Scenario) { s.Predictor = p }
}

// WithDuration overrides the measured run length.
func WithDuration(d sim.Time) ScenarioOption {
	return func(s *Scenario) { s.Duration = d }
}

// WithChecker attaches an invariant checker to the run. Run binds it and
// places its Report in Result.Check; pass a fresh check.New() per run.
func WithChecker(c *check.Checker) ScenarioOption {
	return func(s *Scenario) { s.Checker = c }
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

	// AvgHarvestedCores is the time-weighted average number of cores the
	// ElasticVM held beyond its minimum, measured after warmup.
	AvgHarvestedCores float64
	// AvgElasticCores includes the minimum.
	AvgElasticCores float64
	// ElasticCPUSeconds is CPU actually executed by the ElasticVM after
	// warmup.
	ElasticCPUSeconds float64

	// Batch job completion (for HDInsight/TeraSort/Finite).
	BatchFinished bool
	BatchTime     sim.Time
	// BatchProgress is the finite allotment's checkpointed completed
	// work (BatchFinite only; equals BatchWork when finished).
	BatchProgress sim.Time

	// Agent behaviour.
	Windows    uint64
	Safeguards uint64
	QoSTrips   uint64
	Resizes    uint64
	// Polls counts the agent's poll events that fired and PollsSkipped
	// the poll instants run-ahead recorded without an event (see
	// core.EventDrivenBusy); their sum is the same with run-ahead on or
	// off. Events counts every event the run's loop fired, warm-up
	// included; a skipped poll is an event not fired, so Events+PollsSkipped
	// is the same either way too. Diagnostic only: no table, CSV or trace
	// reports them.
	Polls        uint64
	PollsSkipped uint64
	Events       uint64

	// Fault-injection and resilience counters (all zero on fault-free
	// runs).
	FaultsInjected uint64
	ResizeRetries  uint64
	ResizeFailures uint64
	ResizesAborted uint64
	MissedPolls    uint64
	MissedWindows  uint64
	Stalls         uint64
	Crashes        uint64
	Degradations   uint64
	// Degraded reports the agent ended the run in degraded (NoHarvest)
	// mode.
	Degraded bool

	// Reassignment-mechanism latency (Figure 14).
	Grow, Shrink metrics.Summary
	GrowCDF      []metrics.CDFPoint
	ShrinkCDF    []metrics.CDFPoint

	// Busy-core statistics (Table 1), if CollectBusyStats.
	AvgBusyCores   float64
	AvgWindowPeak  float64
	BusyWindowPeak *metrics.Series // per-25ms-window peaks over time

	// Per-window agent series (Figure 7), if RecordSeries.
	TargetSeries *metrics.Series
	PeakSeries   *metrics.Series
	// QoSViolations is the per-500ms fraction of bad dispatch waits, if
	// RecordSeries.
	QoSViolations *metrics.Series

	// Check is the invariant-verification report when Scenario.Checker was
	// attached; nil otherwise. Check.OK() reports a clean run.
	Check *check.Report
}

// MachineHypervisor adapts the simulated machine to the agent's
// black-box hypervisor contract. A non-nil injector additionally routes
// the busy-core signal through it, so polls can be dropped, staled, or
// perturbed. Only the injector-free adapter is core.EventDrivenBusy, so
// only it lets the agent run its poll ahead.
func MachineHypervisor(m *hypervisor.Machine, inj *faults.Injector) core.Hypervisor {
	if inj != nil {
		return faultyHV{machineHV{m}, m, inj}
	}
	return machineHV{m}
}

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
func (a machineHV) DrainPrimaryWaits() []int64 { return a.m.DrainPrimaryWaits() }

// BusyChangesOnlyInLoopEvents implements core.EventDrivenBusy: BusyCores
// is a count the machine updates only in dispatch, slice-end, preemption
// and core-move events of its loop.
func (machineHV) BusyChangesOnlyInLoopEvents() {}

var _ core.EventDrivenBusy = machineHV{}

// faultyHV embeds the Hypervisor interface, not machineHV, so the
// run-ahead marker is not promoted: SamplePoll draws from the injector's
// RNG on every poll, and skipping a poll would shift every later draw.
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

func (s *Scenario) applyDefaults() {
	if s.PrimaryVMCores == 0 {
		s.PrimaryVMCores = 10
	}
	if s.ElasticMin == 0 {
		s.ElasticMin = 1
	}
	if s.Duration == 0 {
		s.Duration = 20 * sim.Second
	}
	if s.Warmup == 0 {
		s.Warmup = 2 * sim.Second
	}
	if s.Window == 0 {
		s.Window = 25 * sim.Millisecond
	}
	if s.PollInterval == 0 {
		s.PollInterval = 50 * sim.Microsecond
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Controller == nil {
		// The factory is nil for the default CSOAA kind, which routes
		// core.NewSmartHarvest down its legacy construction path and keeps
		// default runs byte-identical to pre-Predictor-API builds. The
		// closure defers factory resolution until after validate has
		// rejected out-of-range kinds.
		pred := s.Predictor
		s.Controller = func(alloc int) core.Controller {
			return core.NewSmartHarvest(alloc, core.SmartHarvestOptions{Predictor: pred.factory()})
		}
		s.LongTermSafeguard = true
	}
}

// validate runs after applyDefaults, so zero values have already been
// filled in; what it rejects is explicitly bad input. Every error wraps
// one of the package's sentinel errors (see errors.go), except the two
// fleet-scope refusals at the end.
func (s *Scenario) validate() error {
	if len(s.Primaries) == 0 {
		return s.scenarioErr("Primaries", ErrNoPrimaries, "")
	}
	if s.PrimaryVMCores < 1 || s.ElasticMin < 1 {
		return s.scenarioErr("PrimaryVMCores/ElasticMin", ErrBadCoreCounts,
			"PrimaryVMCores=%d ElasticMin=%d", s.PrimaryVMCores, s.ElasticMin)
	}
	if s.Duration < 0 {
		return s.scenarioErr("Duration", ErrBadDuration, "Duration=%v", s.Duration)
	}
	if s.Warmup < 0 {
		return s.scenarioErr("Warmup", ErrBadDuration, "Warmup=%v", s.Warmup)
	}
	if s.Window <= 0 || s.PollInterval <= 0 {
		return s.scenarioErr("Window/PollInterval", ErrBadWindow,
			"Window=%v PollInterval=%v", s.Window, s.PollInterval)
	}
	if s.Window < s.PollInterval {
		return s.scenarioErr("Window", ErrBadWindow,
			"Window %v shorter than PollInterval %v", s.Window, s.PollInterval)
	}
	if s.Batch < BatchCPUBully || s.Batch > BatchNone {
		return s.scenarioErr("Batch", ErrUnknownBatch, "BatchKind(%d)", int(s.Batch))
	}
	if !s.Predictor.valid() {
		return s.scenarioErr("Predictor", ErrUnknownPredictor, "PredictorKind(%d)", int(s.Predictor))
	}
	if s.BatchWork < 0 || s.BatchWidth < 0 {
		return s.scenarioErr("BatchWork/BatchWidth", ErrUnknownBatch,
			"BatchWork=%v BatchWidth=%d", s.BatchWork, s.BatchWidth)
	}
	for i, ev := range s.Churn {
		if ev.Depart < -1 {
			return s.scenarioErr("Churn", ErrBadChurn,
				"event %d: departure index %d", i, ev.Depart)
		}
	}
	// Fleet-level faults (server crashes, grant drops, stale reads) have
	// no meaning on a single-server scenario — rejecting them keeps a
	// mistyped plan from silently injecting nothing. Pool plans are
	// likewise fleet-scoped: balances refill from the fleet harvest and
	// admission is bounded by the fleet forecast. Both are refused here,
	// before the run binds its Checker or emits its first event.
	if s.Faults.FleetEnabled() {
		return fmt.Errorf("harness: scenario %q: fleet-level fault plan %q requires a multi-server fleet (internal/cluster); single-server scenarios accept agent-level keys only", s.Name, s.Faults)
	}
	if s.Pools.Enabled() {
		return fmt.Errorf("harness: scenario %q: pool plan %q requires a multi-server fleet (internal/market rides on internal/sched); single-server scenarios take no -pools", s.Name, s.Pools)
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
	return peak * s.PrimaryVMCores, nil
}

// Run executes the scenario and returns its results. Options are applied
// to a copy of s, so the caller's Scenario is never mutated. Validation
// failures return a *ScenarioError wrapping one of the package's sentinel
// errors (ErrNoPrimaries, ErrBadDuration, ...), testable with errors.Is.
func Run(s Scenario, opts ...ScenarioOption) (*Result, error) {
	for _, opt := range opts {
		opt(&s)
	}
	// The conflict is only detectable before applyDefaults installs the
	// default controller.
	if s.Controller != nil && s.Predictor != PredictorCSOAA {
		return nil, s.scenarioErr("Predictor", ErrPredictorConflict,
			"Controller set with Predictor=%s; use SmartHarvestPredictorFactory", s.Predictor)
	}
	s.applyDefaults()
	if err := s.validate(); err != nil {
		return nil, err
	}
	rng := simrng.New(s.Seed)

	alloc := len(s.Primaries) * s.PrimaryVMCores
	maxAlloc, err := s.maxConcurrentAlloc()
	if err != nil {
		return nil, err
	}
	total := maxAlloc + s.ElasticMin

	loop := sim.NewLoop()

	// The controller and agent config are resolved before the machine so
	// an attached checker can be bound to the run's final parameters and
	// chained into the observer both layers share.
	ctrl := s.Controller(maxAlloc)
	agentCfg := core.DefaultConfig(maxAlloc, s.ElasticMin)
	agentCfg.Window = s.Window
	agentCfg.PollInterval = s.PollInterval
	// The long-term QoS guard belongs to SmartHarvest-style policies;
	// the paper's baselines (fixed buffer, PrevPeak) run without it.
	agentCfg.LongTermSafeguard = s.LongTermSafeguard && ctrl.Safeguards()
	agentCfg.RecordSeries = s.RecordSeries
	if s.QoSWaitThreshold > 0 {
		agentCfg.QoSWaitThreshold = s.QoSWaitThreshold
	}
	if s.QoSViolationFrac > 0 {
		agentCfg.QoSViolationFrac = s.QoSViolationFrac
	}
	if s.Mechanism == hypervisor.IPI {
		agentCfg.PostResizeSleep = 0
	}
	if s.Resilience != nil {
		agentCfg.Resilience = *s.Resilience
	}
	if agentCfg.Resilience == (core.ResiliencePolicy{}) {
		agentCfg.Resilience = core.DefaultResilience()
	}
	if s.Checker != nil {
		if err := s.Checker.Bind(check.Config{
			TotalCores:        total,
			PrimaryAlloc:      alloc,
			PrimaryVMCores:    s.PrimaryVMCores,
			ElasticMin:        s.ElasticMin,
			HarvestPause:      agentCfg.HarvestPause,
			QoSViolationFrac:  agentCfg.QoSViolationFrac,
			LongTermSafeguard: agentCfg.LongTermSafeguard,
			MaxRetries:        agentCfg.Resilience.MaxRetries,
			RetryBackoff:      agentCfg.Resilience.RetryBackoff,
			Probation:         agentCfg.Resilience.Probation,
		}); err != nil {
			return nil, err
		}
		s.Observer = obs.Multi(s.Observer, s.Checker)
	}
	agentCfg.Observer = s.Observer
	// Announce the predictor identity at the head of the trace — but only
	// for non-default selections, so default CSOAA traces stay
	// byte-identical to pre-Predictor-API builds.
	if s.Predictor != PredictorCSOAA && s.Observer != nil {
		s.Observer.OnPredictorInfo(obs.PredictorInfo{
			Name:    s.Predictor.String(),
			Classes: maxAlloc + 1,
		})
	}

	hvCfg := hypervisor.DefaultConfig(total)
	hvCfg.Mechanism = s.Mechanism
	hvCfg.Seed = rng.Uint64()
	hvCfg.Observer = s.Observer
	// The injector (and its RNG stream) exists only when the plan injects
	// something: a zero plan consumes no draws, keeping fault-free runs
	// byte-identical to scenarios that never heard of fault injection.
	var injector *faults.Injector
	if s.Faults.AgentEnabled() {
		inj, err := faults.NewInjector(s.Faults, simrng.New(rng.Uint64()), loop.Now, s.Observer)
		if err != nil {
			return nil, err
		}
		injector = inj
		hvCfg.Faults = injector
		agentCfg.Faults = injector
	}
	machine, err := hypervisor.New(loop, hvCfg)
	if err != nil {
		return nil, err
	}
	machine.SetInitialSplit(alloc)

	// Primary VMs and servers.
	var servers []*workload.Server
	for i, spec := range s.Primaries {
		vm := machine.AddVM(fmt.Sprintf("%s-%d", spec.Name, i),
			hypervisor.PrimaryGroup, s.PrimaryVMCores, s.PrimaryVMCores)
		srv, err := spec.Build(loop, vm, rng.Split(), s.Warmup)
		if err != nil {
			return nil, fmt.Errorf("harness: building %s: %w", spec.Name, err)
		}
		srv.Start()
		servers = append(servers, srv)
	}

	// ElasticVM: as many vCPUs as physical cores (paper §3.2).
	evm := machine.AddVM("elastic", hypervisor.ElasticGroup, total, total)
	var batchJob *apps.BatchJob
	var finite *apps.FiniteWork
	var finiteDoneAt sim.Time
	switch s.Batch {
	case BatchCPUBully:
		apps.NewCPUBully(loop, evm).Start()
	case BatchHDInsight:
		batchJob = apps.HDInsight(loop, evm, nil)
	case BatchTeraSort:
		batchJob = apps.TeraSort(loop, evm, nil)
	case BatchFinite:
		work := s.BatchWork
		if work == 0 {
			work = 8 * sim.Second
		}
		finite = apps.NewFiniteWork(loop, evm, work, func() { finiteDoneAt = loop.Now() })
		if s.BatchWidth > 0 {
			finite.LimitParallelism(s.BatchWidth)
		}
		finite.Start()
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
	}

	// Agent. The controller is sized for the maximum concurrent
	// allocation so it can follow churn; the agent starts at the initial
	// allocation. (agentCfg and ctrl were resolved above, before the
	// machine, so the checker could bind to them.)
	agent, err := core.NewAgent(loop, MachineHypervisor(machine, injector), ctrl, agentCfg)
	if err != nil {
		return nil, err
	}
	if alloc != maxAlloc {
		// Start at the initial allocation; the extra capacity is
		// unallocated until arrivals claim it.
		if err := agent.SetPrimaryAlloc(alloc); err != nil {
			return nil, err
		}
	}
	agent.Start()

	// Schedule VM churn.
	var churnErr error
	vms := make([]*hypervisor.VM, len(servers))
	for i, srv := range servers {
		vms[i] = srv.VM()
	}
	for _, ev := range s.Churn {
		ev := ev
		loop.At(ev.At, func() {
			if churnErr != nil {
				return
			}
			if ev.Arrive != nil {
				vm := machine.AddVM(fmt.Sprintf("%s-%d", ev.Arrive.Name, len(vms)),
					hypervisor.PrimaryGroup, s.PrimaryVMCores, s.PrimaryVMCores)
				srv, err := ev.Arrive.Build(loop, vm, rng.Split(), s.Warmup)
				if err != nil {
					churnErr = err
					return
				}
				srv.Start()
				servers = append(servers, srv)
				vms = append(vms, vm)
			}
			if ev.Depart >= 0 {
				if ev.Depart >= len(vms) || vms[ev.Depart] == nil {
					churnErr = fmt.Errorf("harness: churn departure %d invalid", ev.Depart)
					return
				}
				machine.RemoveVM(vms[ev.Depart])
				vms[ev.Depart] = nil
			}
			live := 0
			for _, vm := range vms {
				if vm != nil {
					live++
				}
			}
			if err := agent.SetPrimaryAlloc(live * s.PrimaryVMCores); err != nil {
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
					PrimaryAlloc:  live * s.PrimaryVMCores,
				})
			}
		})
	}

	// Optional busy-core statistics sampler (Table 1 methodology: poll
	// every PollInterval, peak per 25 ms window).
	var busySum float64
	var busyN uint64
	var peakSeries *metrics.Series
	if s.CollectBusyStats {
		peakSeries = &metrics.Series{Name: "busy-window-peak"}
		winPeak := 0
		loop.NewTicker(s.Warmup, s.PollInterval, func() {
			b := machine.BusyCores(hypervisor.PrimaryGroup)
			busySum += float64(b)
			busyN++
			if b > winPeak {
				winPeak = b
			}
		})
		loop.NewTicker(s.Warmup+25*sim.Millisecond, 25*sim.Millisecond, func() {
			peakSeries.Add(int64(loop.Now()), float64(winPeak))
			winPeak = 0
		})
	}

	// Snapshot harvest accounting at warmup.
	var elasticCoreSecAtWarmup, elasticCPUAtWarmup float64
	loop.At(s.Warmup, func() {
		elasticCoreSecAtWarmup = machine.CoreSeconds(hypervisor.ElasticGroup)
		elasticCPUAtWarmup = evm.CPUTime().Seconds()
	})

	end := s.Warmup + s.Duration
	loop.RunUntil(end)
	if churnErr != nil {
		return nil, churnErr
	}
	// For completion-time experiments, keep running until the batch job
	// finishes (the primaries keep serving).
	if batchJob != nil && !batchJob.Finished() {
		for !batchJob.Finished() && loop.Now() < end+10*60*sim.Second {
			if !loop.Step() {
				break
			}
		}
	}
	if finite != nil && !finite.Done() {
		for !finite.Done() && loop.Now() < end+10*60*sim.Second {
			if !loop.Step() {
				break
			}
		}
	}

	res := &Result{
		Scenario:  s.Name,
		Policy:    ctrl.Name(),
		Mechanism: s.Mechanism.String(),
		Duration:  s.Duration,
	}
	for _, srv := range servers {
		pr := PrimaryResult{
			Name:      srv.Name(),
			Latency:   srv.Latency().Summarize(),
			Offered:   srv.Offered(),
			Completed: srv.Completed(),
		}
		for i := 0; i < srv.NumPhases(); i++ {
			pr.Phases = append(pr.Phases, srv.PhaseLatency(i).Summarize())
		}
		res.Primaries = append(res.Primaries, pr)
	}

	measured := (loop.Now() - s.Warmup).Seconds()
	if measured > 0 {
		res.AvgElasticCores = (machine.CoreSeconds(hypervisor.ElasticGroup) - elasticCoreSecAtWarmup) / measured
		res.ElasticCPUSeconds = evm.CPUTime().Seconds() - elasticCPUAtWarmup
	}
	res.AvgHarvestedCores = res.AvgElasticCores - float64(s.ElasticMin)
	if res.AvgHarvestedCores < 0 {
		res.AvgHarvestedCores = 0
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
	res.Windows = agent.Windows()
	res.Safeguards = agent.SafeguardInvocations()
	res.QoSTrips = agent.QoSTrips()
	res.Resizes = machine.Resizes()
	res.Polls = agent.Polls()
	res.PollsSkipped = agent.PollsSkipped()
	res.Events = loop.Fired()
	if injector != nil {
		res.FaultsInjected = injector.Total()
	}
	res.ResizeRetries = agent.ResizeRetries()
	res.ResizeFailures = agent.ResizeFailures()
	res.ResizesAborted = agent.ResizesAborted()
	res.MissedPolls = agent.MissedPolls()
	res.MissedWindows = agent.MissedWindows()
	res.Stalls = agent.Stalls()
	res.Crashes = agent.Crashes()
	res.Degradations = agent.Degradations()
	res.Degraded = agent.Degraded()
	res.Grow = machine.GrowLatency().Summarize()
	res.Shrink = machine.ShrinkLatency().Summarize()
	res.GrowCDF = machine.GrowLatency().CDF()
	res.ShrinkCDF = machine.ShrinkLatency().CDF()
	if s.CollectBusyStats && busyN > 0 {
		res.AvgBusyCores = busySum / float64(busyN)
		res.AvgWindowPeak = peakSeries.Mean()
		res.BusyWindowPeak = peakSeries
	}
	if s.RecordSeries {
		res.TargetSeries = agent.TargetSeries()
		res.PeakSeries = agent.PeakSeries()
		res.QoSViolations = agent.QoSViolationSeries()
	}
	if s.Checker != nil {
		// Fold the hypervisor's end-of-run state self-check into the
		// report: the event stream can look legal while the machine's
		// internal accounting drifted.
		if err := machine.CheckInvariants(); err != nil {
			s.Checker.Flag(check.InvMachineState, loop.Now(), err.Error())
		}
		res.Check = s.Checker.Finish()
	}
	simTimeExecuted.Add(int64(loop.Now()))
	return res, nil
}

// P99 returns the P99 latency (ns) of primary i.
func (r *Result) P99(i int) int64 { return r.Primaries[i].Latency.P99 }

// RunSpeedup runs the scenario twice — once with the given policy and
// once with NoHarvest (ElasticVM pinned to its minimum, which defaults to
// one core) — and returns the batch job's completion-time speedup, as in
// the paper's Figure 6. Callers that want the two runs on the RunAll
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
