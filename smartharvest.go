// Package smartharvest is a from-scratch Go reproduction of SmartHarvest
// (Wang et al., EuroSys '21): a system that harvests allocated-but-idle
// CPU cores from black-box primary VMs for a co-located low-priority
// ElasticVM, using online cost-sensitive learning to predict the
// primaries' peak core demand every few milliseconds while protecting
// their tail latency with a two-level safeguard.
//
// This root package is the public facade. It re-exports the pieces a
// downstream user composes:
//
//   - Scenario / Run: describe and execute a full experiment on the
//     simulated Hyper-V-like machine (primary VMs with latency-critical
//     workloads, an ElasticVM with a batch workload, and the EVMAgent).
//   - Controller and the policy constructors: SmartHarvest's online
//     learner plus the paper's baselines (fixed buffer, previous-peak
//     heuristics, EWMA, no-harvest). Implement Controller yourself to
//     plug in a custom harvesting policy.
//   - The workload catalog: calibrated models of the paper's four
//     latency-critical primaries, the square-wave synthetic, and three
//     batch applications.
//
// A minimal run:
//
//	res, err := smartharvest.Run(smartharvest.Scenario{
//		Name:      "quickstart",
//		Primaries: []smartharvest.PrimarySpec{smartharvest.Memcached(40000)},
//		Duration:  30 * smartharvest.Second,
//		Warmup:    2 * smartharvest.Second,
//	})
//
// The lower-level building blocks (the discrete-event loop, the simulated
// hypervisor, the CSOAA learner) live in internal/ packages; see DESIGN.md
// for the architecture and EXPERIMENTS.md for the paper-reproduction
// results.
package smartharvest

import (
	"io"

	"smartharvest/internal/apps"
	"smartharvest/internal/check"
	"smartharvest/internal/core"
	"smartharvest/internal/faults"
	"smartharvest/internal/harness"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/learner"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// Time is a span of virtual time in nanoseconds.
type Time = sim.Time

// Common durations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Scenario describes one experiment: the primary workloads, the batch
// workload, the reassignment mechanism, the harvesting policy, and the
// run length. See harness.Scenario for field documentation.
type Scenario = harness.Scenario

// Result carries everything a run produces: per-primary latency
// summaries, harvested-core averages, batch completion, agent behaviour
// counters, and reassignment-latency distributions.
type Result = harness.Result

// PrimaryResult is one primary workload's outcome within a Result.
type PrimaryResult = harness.PrimaryResult

// PrimarySpec describes a primary application at an offered load.
type PrimarySpec = apps.PrimarySpec

// ChurnEvent schedules a primary-VM arrival or departure during a run
// (Scenario.Churn).
type ChurnEvent = harness.ChurnEvent

// BatchKind selects the ElasticVM workload.
type BatchKind = harness.BatchKind

// Batch workload choices.
const (
	BatchCPUBully  = harness.BatchCPUBully
	BatchHDInsight = harness.BatchHDInsight
	BatchTeraSort  = harness.BatchTeraSort
	BatchFinite    = harness.BatchFinite
	BatchNone      = harness.BatchNone
)

// ParseBatchKind parses a BatchKind from its String form.
func ParseBatchKind(s string) (BatchKind, error) { return harness.ParseBatchKind(s) }

// Mechanism selects how core reassignments take effect.
type Mechanism = hypervisor.Mechanism

// Reassignment mechanisms: the stock cpugroups path (hypercalls plus
// non-preemptive scheduling-event delays) and the paper's merge-call+IPI
// path.
const (
	CpuGroups = hypervisor.CpuGroups
	IPI       = hypervisor.IPI
)

// ParseMechanism parses a Mechanism from its String form.
func ParseMechanism(s string) (Mechanism, error) { return hypervisor.ParseMechanism(s) }

// Controller is the policy interface the EVMAgent drives: it decides the
// primary-core target at every learning-window boundary (and, for
// reactive policies, at every poll). Implement it to plug a custom
// harvesting policy into Scenario.Controller. OnPoll's "do nothing"
// answer (ok=false) must depend only on its arguments and on state the
// other Controller calls change, not on the clock or a call count: on an
// unobserved simulated run the agent skips polls whose outcome the
// previous one already determined (DESIGN.md §5 "Poll run-ahead"), so
// OnPoll is called less often than once per sample in a Window.
type Controller = core.Controller

// Window is the per-learning-window information a Controller sees.
type Window = core.Window

// ControllerFactory builds a Controller for a primary core allocation.
type ControllerFactory = harness.ControllerFactory

// SmartHarvestOptions tunes the paper's learner (learning rate, cost
// function, short-term safeguard mode).
type SmartHarvestOptions = core.SmartHarvestOptions

// SafeguardMode selects the short-term safeguard response.
type SafeguardMode = core.SafeguardMode

// Short-term safeguard modes (paper Figure 10).
const (
	ConservativeSafeguard = core.ConservativeSafeguard
	AggressiveSafeguard   = core.AggressiveSafeguard
)

// ParseSafeguardMode parses a SafeguardMode from its String form.
func ParseSafeguardMode(s string) (SafeguardMode, error) { return core.ParseSafeguardMode(s) }

// PredictorKind selects the peak predictor a SmartHarvest controller
// learns with (see NewSmartHarvestPredictor). The zero value is the
// paper's CSOAA learner.
type PredictorKind = harness.PredictorKind

// Predictor choices — the built-in zoo. See internal/learner for the
// models and DESIGN.md §10 for the selection trade-offs.
const (
	PredictorCSOAA    = harness.PredictorCSOAA
	PredictorAdaGrad  = harness.PredictorAdaGrad
	PredictorEWMA     = harness.PredictorEWMA
	PredictorPeriodic = harness.PredictorPeriodic
	PredictorMLP      = harness.PredictorMLP
	PredictorEnsemble = harness.PredictorEnsemble
)

// ParsePredictor parses a PredictorKind from its String form (one of
// PredictorNames). Unknown names return an error wrapping
// ErrUnknownPredictor.
func ParsePredictor(s string) (PredictorKind, error) { return harness.ParsePredictor(s) }

// PredictorNames returns the registered predictor names, sorted — the
// valid inputs to ParsePredictor.
func PredictorNames() []string { return learner.Names() }

// NewSmartHarvestPredictor builds a SmartHarvest controller factory
// running the selected predictor. Set it as Scenario.Controller to run a
// predictor other than the default CSOAA; a run with an Observer then
// opens its trace with a PredictorInfo event naming it. A kind that is
// not one of the Predictor constants returns an error wrapping
// ErrUnknownPredictor.
func NewSmartHarvestPredictor(kind PredictorKind, opts SmartHarvestOptions) (ControllerFactory, error) {
	// An undeclared kind renders as PredictorKind(n), which no name parses.
	if _, err := harness.ParsePredictor(kind.String()); err != nil {
		return nil, err
	}
	return harness.SmartHarvestPredictorFactory(kind, opts), nil
}

// Structured scenario-validation errors. Run returns a *ScenarioError
// wrapping one of these sentinels when the Scenario is malformed; test
// with errors.Is and recover detail with errors.As.
var (
	ErrNoPrimaries      = harness.ErrNoPrimaries
	ErrBadDuration      = harness.ErrBadDuration
	ErrBadWindow        = harness.ErrBadWindow
	ErrBadChurn         = harness.ErrBadChurn
	ErrBadQoS           = harness.ErrBadQoS
	ErrUnknownBatch     = harness.ErrUnknownBatch
	ErrUnknownPredictor = harness.ErrUnknownPredictor
)

// ScenarioError reports which scenario and field failed validation.
type ScenarioError = harness.ScenarioError

// Run executes a scenario on the simulated machine and returns its
// results. Runs are deterministic given Scenario.Seed — with an observer
// attached, so is the event stream. Validation failures return a
// *ScenarioError wrapping one of the Err* sentinels.
func Run(s Scenario) (*Result, error) { return harness.Run(s) }

// RunAll executes scenarios concurrently on a pool of at most parallel
// workers (0 or less means GOMAXPROCS) and returns results in input
// order. Each scenario is an independent simulation, so results are
// identical to running them serially; errors for individual scenarios
// are joined and reported together, with the corresponding result slots
// left nil.
func RunAll(scenarios []Scenario, parallel int) ([]*Result, error) {
	return harness.RunAll(scenarios, parallel)
}

// RunSpeedup runs the scenario twice — with its policy and with
// NoHarvest — and returns the batch job's completion-time speedup (the
// paper's Figure 6 metric).
func RunSpeedup(s Scenario) (speedup float64, with, baseline *Result, err error) {
	return harness.RunSpeedup(s)
}

// Policies.

// NewSmartHarvest builds the paper's online-learning policy.
func NewSmartHarvest(opts SmartHarvestOptions) ControllerFactory {
	return harness.SmartHarvestFactory(opts)
}

// NewFixedBuffer builds the PerfIso-style fixed idle buffer of k cores.
func NewFixedBuffer(k int) ControllerFactory { return harness.FixedBufferFactory(k) }

// NewPrevPeak builds the previous-peak heuristic over n windows;
// returnOne selects PrevPeak10's one-core-at-a-time safeguard response.
func NewPrevPeak(n int, returnOne bool) ControllerFactory {
	return harness.PrevPeakFactory(n, returnOne)
}

// NewNoHarvest builds the null policy (the latency baseline).
func NewNoHarvest() ControllerFactory { return harness.NoHarvestFactory() }

// NewEWMA builds the exponentially-weighted-moving-average baseline.
func NewEWMA(alpha float64, margin int) ControllerFactory {
	return harness.EWMAFactory(alpha, margin)
}

// Custom wraps a user-provided Controller constructor so it can be used
// as a Scenario.Controller.
func Custom(build func(primaryAlloc int) Controller) ControllerFactory {
	return func(alloc int) core.Controller { return build(alloc) }
}

// Workloads — the paper's §5.1 catalog, calibrated per DESIGN.md.

// Memcached models the in-memory key-value store at the given QPS.
func Memcached(qps float64) PrimarySpec { return apps.Memcached(qps) }

// MemcachedSwinging models a key-value store with sharp aperiodic load
// swings (the Figure 11 stress case).
func MemcachedSwinging(qps float64) PrimarySpec { return apps.MemcachedSwinging(qps) }

// IndexServe models the web-search index-serving node at the given QPS.
func IndexServe(qps float64) PrimarySpec { return apps.IndexServe(qps) }

// Moses models the TailBench machine-translation service.
func Moses(qps float64) PrimarySpec { return apps.Moses(qps) }

// ImgDNN models the TailBench handwriting-recognition service.
func ImgDNN(qps float64) PrimarySpec { return apps.ImgDNN(qps) }

// SquareWave models the Figure 7 synthetic square-wave primary.
func SquareWave(high, low int, halfPeriod Time) PrimarySpec {
	return apps.SquareWave(high, low, halfPeriod)
}

// MemcachedVaryingLoad models Table 2's stepped-load Memcached.
func MemcachedVaryingLoad(phaseQPS []float64, phaseLen Time) PrimarySpec {
	return apps.MemcachedVaryingLoad(phaseQPS, phaseLen)
}

// Observability — the typed event stream a run can emit (see
// Scenario.Observer). With no observer attached the hot
// path performs no allocation and no interface calls; with one attached,
// events arrive synchronously in deterministic order, so a trace is a
// pure function of the scenario and seed.

// Observer receives a run's typed events. Embed NopObserver and override
// the methods you care about.
type Observer = obs.Observer

// NopObserver implements Observer with no-ops, for embedding.
type NopObserver = obs.NopObserver

// Event types delivered to an Observer.
type (
	// PollSample is one busy-poll reading (every PollInterval).
	PollSample = obs.PollSample
	// WindowEnd is one learning-window decision: features, the raw
	// prediction, and the clamped target that was applied.
	WindowEnd = obs.WindowEnd
	// SafeguardTrip fires when the short-term safeguard cuts a window.
	SafeguardTrip = obs.SafeguardTrip
	// QoSTrip fires when the long-term safeguard pauses harvesting.
	QoSTrip = obs.QoSTrip
	// QoSResume fires once a harvest pause has expired.
	QoSResume = obs.QoSResume
	// Resize is one core-reassignment request with its latency.
	Resize = obs.Resize
	// ChurnApplied fires after a primary-VM arrival/departure.
	ChurnApplied = obs.ChurnApplied
	// BatchProgress fires at batch-job phase boundaries.
	BatchProgress = obs.BatchProgress
	// WindowFeatures are the per-window busy-sample statistics, exactly
	// the five features the learner computed from the window.
	WindowFeatures = obs.Features
	// FaultInjected fires when the fault-injection layer perturbs the run.
	FaultInjected = obs.FaultInjected
	// ResizeRetry fires when the agent re-attempts a failed hypercall.
	ResizeRetry = obs.ResizeRetry
	// DegradedEnter fires when the agent falls back to NoHarvest.
	DegradedEnter = obs.DegradedEnter
	// DegradedExit fires when a clean probation ends degraded mode.
	DegradedExit = obs.DegradedExit
	// PredictorInfo names the controller's peak predictor at the start
	// of a run, unless it is the default CSOAA.
	PredictorInfo = obs.PredictorInfo
)

// ClampReason explains why a window's applied target differs from the
// controller's raw prediction.
type ClampReason = obs.ClampReason

// Clamp reasons carried by WindowEnd events.
const (
	ClampNone      = obs.ClampNone
	ClampPaused    = obs.ClampPaused
	ClampBusyFloor = obs.ClampBusyFloor
	ClampAllocCap  = obs.ClampAllocCap
	ClampDegraded  = obs.ClampDegraded
)

// Fault injection and resilience — the deterministic chaos layer (see
// internal/faults). A FaultPlan on Scenario.Faults perturbs the resize
// hypercall, the busy-core signal, and the agent itself, all driven by
// the scenario seed; the agent responds with bounded retries and, past
// its resilience thresholds, graceful degradation to NoHarvest.

// FaultPlan parameterizes fault injection for a run (Scenario.Faults).
// The zero value injects nothing and leaves the run byte-identical to a
// fault-free one.
type FaultPlan = faults.Plan

// ParseFaultPlan parses the -faults CLI syntax: comma-separated
// key=value pairs, one per FaultPlan field (see README "Chaos testing").
// The empty string and "none" are the zero plan.
func ParseFaultPlan(s string) (FaultPlan, error) { return faults.ParsePlan(s) }

// TraceSchemaVersion is the "v" field every JSONL trace line carries.
const TraceSchemaVersion = obs.SchemaVersion

// EventRing returns an in-memory flight recorder keeping the most recent
// capacity events.
func EventRing(capacity int) *obs.Ring { return obs.NewRing(capacity) }

// TraceWriter returns a streaming JSONL trace sink writing to w. Call
// Flush when the run is done. TraceOmitPolls drops poll samples, which
// dominate trace volume ~1000:1.
func TraceWriter(w io.Writer, opts ...obs.JSONLOption) *obs.JSONL { return obs.NewJSONL(w, opts...) }

// TraceOmitPolls configures TraceWriter to drop PollSample events.
func TraceOmitPolls() obs.JSONLOption { return obs.JSONLOmitPolls() }

// EventMetrics returns an aggregating sink that folds the event stream
// into counters and summary statistics.
func EventMetrics() *obs.Metrics { return obs.NewMetrics() }

// MultiObserver fans one event stream out to several observers.
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// Verification — the invariant checker (see internal/check). A Checker is
// an Observer that validates a run online against the paper's safety
// contract: core conservation at every resize, monotonic sim time, the
// legality of both safeguards' state machines (including the exact
// harvest-pause duration), and prediction/clamp consistency at every
// window decision. Attach one per run with Scenario.Checker; the harness
// binds it and puts the Report in Result.Check.

// Checker verifies one run's event stream against the safety invariants.
type Checker = check.Checker

// CheckReport is the outcome of a checked run (Result.Check).
type CheckReport = check.Report

// CheckViolation is one invariant breach inside a CheckReport.
type CheckViolation = check.Violation

// TraceError is one well-formedness problem found by ValidateTrace.
type TraceError = check.TraceError

// NewChecker returns a fresh invariant checker for a single run.
func NewChecker() *Checker { return check.New() }

// ValidateTrace checks a JSONL trace (as written by TraceWriter) for
// well-formedness: every line must decode as a line the writer could
// have written (schema version, known event, exactly its fields with the
// right types, no null, valid UTF-8), and timestamps must not decrease.
// It reports the first problem on each line.
func ValidateTrace(r io.Reader) ([]TraceError, error) { return check.ValidateTrace(r) }
