package obs

import (
	"fmt"
	"strings"

	"smartharvest/internal/metrics"
)

// Metrics is the aggregating sink: it folds the event stream into the
// counters and summary statistics that experiment reports and the Result
// struct expose — one observer subsuming the agent's and machine's
// scattered per-run counters (windows, safeguard invocations, QoS trips,
// resizes) plus distributional summaries those counters never had.
//
// Fields are exported for direct reading once the run is over; the sink
// is not safe for concurrent use during a run (attach one per scenario).
// The zero value is not usable; call NewMetrics.
type Metrics struct {
	Adapter

	Polls         uint64
	Windows       uint64
	Safeguards    uint64 // short-term safeguard trips
	QoSTrips      uint64
	QoSResumes    uint64
	Resizes       uint64
	Grows         uint64 // resizes that shrank the primary group (ElasticVM grew)
	Shrinks       uint64 // resizes that grew the primary group back
	Churns        uint64
	BatchPhases   uint64
	BatchFinished bool

	// ClampCounts tallies WindowEnd clamp reasons by ClampReason value.
	ClampCounts [5]uint64

	// Fault/degradation counters (zero on fault-free runs).
	FaultsInjected uint64
	ResizeRetries  uint64
	Degradations   uint64 // degraded-enter events
	DegradedExits  uint64

	// Fleet-scheduler job counters (zero outside sched runs).
	JobSubmits     uint64
	JobStarts      uint64
	JobEvictions   uint64
	JobRequeues    uint64
	JobCompletions uint64
	SLOMisses      uint64

	// Fleet-chaos counters (zero on fault-free runs).
	ServerCrashes      uint64
	ServerRestarts     uint64
	ServerQuarantines  uint64
	ServerProbations   uint64
	PlacementRetries   uint64
	AdmissionDegraded  uint64 // entered events
	AdmissionRecovered uint64 // exited events

	// Capacity-market counters (zero outside market runs).
	PoolOpens      uint64
	PoolRejects    uint64
	PoolGrants     uint64
	PoolAccounts   uint64
	PoolEvictions  uint64 // PoolEvict events of either reason
	PoolViolations uint64 // SLA-violating capacity evictions
	PoolSettles    uint64
	PoolRevenue    float64 // summed over PoolSettle events
	PoolPenalties  float64

	// Per-window statistics.
	WindowPeak   metrics.Welford // observed peak busy cores per window
	WindowTarget metrics.Welford // applied primary-core target per window

	// Busy-core statistics at poll granularity.
	PollBusy metrics.Welford

	// ResizeLatency summarizes the hypercall issue latency per resize (ns).
	ResizeLatency metrics.Welford

	// Predictor is the predictor identity announced at run start; empty
	// on default-CSOAA runs (which emit no PredictorInfo event).
	Predictor string
}

// NewMetrics returns an empty aggregating sink.
func NewMetrics() *Metrics {
	m := &Metrics{}
	m.Sink = m
	return m
}

// Observe implements Sink: it folds r into the counters.
func (m *Metrics) Observe(r *Record) {
	switch r.Kind {
	case KindPollSample:
		m.Polls++
		m.PollBusy.Add(float64(r.PollSample.Busy))
	case KindWindowEnd:
		e := &r.WindowEnd
		m.Windows++
		if int(e.Clamp) < len(m.ClampCounts) {
			m.ClampCounts[e.Clamp]++
		}
		m.WindowPeak.Add(float64(e.Features.Max))
		m.WindowTarget.Add(float64(e.Target))
	case KindSafeguardTrip:
		m.Safeguards++
	case KindQoSTrip:
		m.QoSTrips++
	case KindQoSResume:
		m.QoSResumes++
	case KindResize:
		e := &r.Resize
		m.Resizes++
		if e.ToCores < e.FromCores {
			m.Grows++
		} else {
			m.Shrinks++
		}
		m.ResizeLatency.Add(float64(e.Latency))
	case KindChurnApplied:
		m.Churns++
	case KindBatchProgress:
		m.BatchPhases++
		if r.BatchProgress.Finished {
			m.BatchFinished = true
		}
	case KindFaultInjected:
		m.FaultsInjected++
	case KindResizeRetry:
		m.ResizeRetries++
	case KindDegradedEnter:
		m.Degradations++
	case KindDegradedExit:
		m.DegradedExits++
	case KindJobSubmit:
		m.JobSubmits++
	case KindJobStart:
		m.JobStarts++
	case KindJobEvict:
		m.JobEvictions++
	case KindJobRequeue:
		m.JobRequeues++
	case KindJobComplete:
		m.JobCompletions++
	case KindJobSLOMiss:
		m.SLOMisses++
	case KindPredictorInfo:
		// A run-level fact, not a counter: kept for display.
		m.Predictor = r.PredictorInfo.Name
	case KindServerCrash:
		m.ServerCrashes++
	case KindServerRestart:
		m.ServerRestarts++
	case KindServerQuarantine:
		m.ServerQuarantines++
	case KindServerProbation:
		m.ServerProbations++
	case KindPlacementRetry:
		m.PlacementRetries++
	case KindAdmissionDegraded:
		if r.AdmissionDegraded.Entered {
			m.AdmissionDegraded++
		} else {
			m.AdmissionRecovered++
		}
	case KindPoolOpen:
		m.PoolOpens++
	case KindPoolReject:
		m.PoolRejects++
	case KindPoolGrant:
		m.PoolGrants++
	case KindPoolAccount:
		m.PoolAccounts++
	case KindPoolEvict:
		m.PoolEvictions++
		if r.PoolEvict.SLAViolation {
			m.PoolViolations++
		}
	case KindPoolSettle:
		m.PoolSettles++
		m.PoolRevenue += r.PoolSettle.Revenue
		m.PoolPenalties += r.PoolSettle.Penalties
	}
}

// String renders a one-run summary.
func (m *Metrics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "polls=%d windows=%d safeguards=%d qos-trips=%d resizes=%d (grow %d / shrink %d)",
		m.Polls, m.Windows, m.Safeguards, m.QoSTrips, m.Resizes, m.Grows, m.Shrinks)
	if m.Windows > 0 {
		fmt.Fprintf(&b, "\navg window peak=%.2f avg target=%.2f clamp: none=%d paused=%d busy-floor=%d alloc-cap=%d degraded=%d",
			m.WindowPeak.Mean(), m.WindowTarget.Mean(),
			m.ClampCounts[ClampNone], m.ClampCounts[ClampPaused],
			m.ClampCounts[ClampBusyFloor], m.ClampCounts[ClampAllocCap],
			m.ClampCounts[ClampDegraded])
	}
	if m.FaultsInjected > 0 || m.Degradations > 0 {
		fmt.Fprintf(&b, "\nfaults injected=%d resize retries=%d degradations=%d (exited %d)",
			m.FaultsInjected, m.ResizeRetries, m.Degradations, m.DegradedExits)
	}
	if m.Churns > 0 {
		fmt.Fprintf(&b, "\nchurn events applied=%d", m.Churns)
	}
	if m.BatchPhases > 0 {
		fmt.Fprintf(&b, "\nbatch phases=%d finished=%v", m.BatchPhases, m.BatchFinished)
	}
	if m.JobSubmits > 0 {
		fmt.Fprintf(&b, "\njobs submitted=%d started=%d completed=%d evictions=%d requeues=%d slo-misses=%d",
			m.JobSubmits, m.JobStarts, m.JobCompletions, m.JobEvictions, m.JobRequeues, m.SLOMisses)
	}
	if m.PoolOpens > 0 || m.PoolRejects > 0 {
		fmt.Fprintf(&b, "\npools opened=%d rejected=%d grants=%d evictions=%d (violations %d) revenue=%.2f penalties=%.2f",
			m.PoolOpens, m.PoolRejects, m.PoolGrants, m.PoolEvictions,
			m.PoolViolations, m.PoolRevenue, m.PoolPenalties)
	}
	if m.ServerCrashes > 0 || m.ServerQuarantines > 0 || m.PlacementRetries > 0 {
		fmt.Fprintf(&b, "\nserver crashes=%d restarts=%d quarantines=%d probations=%d placement retries=%d admission degraded=%d (recovered %d)",
			m.ServerCrashes, m.ServerRestarts, m.ServerQuarantines, m.ServerProbations,
			m.PlacementRetries, m.AdmissionDegraded, m.AdmissionRecovered)
	}
	return b.String()
}
