package obs

import "smartharvest/internal/sim"

// EventSchema is one row of the descriptor table: everything about an
// event kind that is not its Go struct. The table is the single owner of
// the JSONL trace format and of the kind's Observer method — the encoder,
// Decode, Dispatch, Kind.String, Record.At, check.ValidateTrace and the
// DESIGN.md §6 schema table all read it.
type EventSchema struct {
	// Name is the kind's wire name: the "ev" value of its trace lines
	// and its Kind.String.
	Name string
	// Fields are the per-event trace fields in line order, after the
	// common "v"/"ev"/"t" prefix.
	Fields []Field

	at   func(*Record) *sim.Time
	call func(Observer, *Record)
}

// Field is one per-event field of a trace line: a JSON key and the
// Record field it carries.
type Field struct {
	// Name is the JSON key.
	Name string
	// ptr returns a pointer to the field's Go value inside a Record.
	ptr func(*Record) any
}

// Type returns the field's JSON-level type — "int", "float", "bool" or
// "string" — and, for an enum, its closed set of names; both follow from
// the Go type the field points at.
func (f Field) Type() (typ string, enum []string) {
	switch f.ptr(&Record{}).(type) {
	case *int, *uint64, *sim.Time:
		return "int", nil
	case *float64:
		return "float", nil
	case *bool:
		return "bool", nil
	case *ClampReason:
		return "string", clampNames.Names
	case *FaultKind:
		return "string", faultNames.Names
	case *DegradeReason:
		return "string", degradeNames.Names
	}
	return "string", nil
}

// Schema returns the descriptor table, indexed by Kind. The rows are
// shared, not copied: callers must not modify them.
func Schema() []EventSchema { return schema[:] }

// String returns the kind's wire name.
func (k Kind) String() string {
	if k < numKinds {
		return schema[k].Name
	}
	return "unknown"
}

// At returns the timestamp of the event r carries.
func (r *Record) At() sim.Time { return *schema[r.Kind].at(r) }

// Dispatch is the Adapter's inverse: it delivers r to o through the typed
// method r.Kind selects. Multi uses it for observers that are not Sinks;
// replaying a captured or decoded stream into any Observer is a loop over
// Dispatch. A Record of unknown Kind is dropped.
func Dispatch(o Observer, r *Record) {
	if r.Kind < numKinds {
		schema[r.Kind].call(o, r)
	}
}

var schema = [numKinds]EventSchema{
	KindPollSample: {Name: "poll", at: func(r *Record) *sim.Time { return &r.PollSample.At },
		call: func(o Observer, r *Record) { o.OnPollSample(r.PollSample) }, Fields: []Field{
			{"busy", func(r *Record) any { return &r.PollSample.Busy }},
			{"target", func(r *Record) any { return &r.PollSample.Target }},
		}},
	KindWindowEnd: {Name: "window", at: func(r *Record) *sim.Time { return &r.WindowEnd.At },
		call: func(o Observer, r *Record) { o.OnWindowEnd(r.WindowEnd) }, Fields: []Field{
			{"seq", func(r *Record) any { return &r.WindowEnd.Seq }},
			{"samples", func(r *Record) any { return &r.WindowEnd.Samples }},
			{"min", func(r *Record) any { return &r.WindowEnd.Features.Min }},
			{"peak", func(r *Record) any { return &r.WindowEnd.Features.Max }},
			{"avg", func(r *Record) any { return &r.WindowEnd.Features.Avg }},
			{"std", func(r *Record) any { return &r.WindowEnd.Features.Std }},
			{"median", func(r *Record) any { return &r.WindowEnd.Features.Median }},
			{"peak1s", func(r *Record) any { return &r.WindowEnd.Peak1s }},
			{"busy", func(r *Record) any { return &r.WindowEnd.Busy }},
			{"safeguard", func(r *Record) any { return &r.WindowEnd.Safeguard }},
			{"pred", func(r *Record) any { return &r.WindowEnd.Prediction }},
			{"target", func(r *Record) any { return &r.WindowEnd.Target }},
			{"clamp", func(r *Record) any { return &r.WindowEnd.Clamp }},
		}},
	KindSafeguardTrip: {Name: "safeguard", at: func(r *Record) *sim.Time { return &r.SafeguardTrip.At },
		call: func(o Observer, r *Record) { o.OnSafeguardTrip(r.SafeguardTrip) }, Fields: []Field{
			{"busy", func(r *Record) any { return &r.SafeguardTrip.Busy }},
			{"target", func(r *Record) any { return &r.SafeguardTrip.Target }},
		}},
	KindQoSTrip: {Name: "qos-trip", at: func(r *Record) *sim.Time { return &r.QoSTrip.At },
		call: func(o Observer, r *Record) { o.OnQoSTrip(r.QoSTrip) }, Fields: []Field{
			{"frac", func(r *Record) any { return &r.QoSTrip.Frac }},
			{"waits", func(r *Record) any { return &r.QoSTrip.Waits }},
			{"pause_until", func(r *Record) any { return &r.QoSTrip.PauseUntil }},
		}},
	KindQoSResume: {Name: "qos-resume", at: func(r *Record) *sim.Time { return &r.QoSResume.At },
		call: func(o Observer, r *Record) { o.OnQoSResume(r.QoSResume) }},
	KindResize: {Name: "resize", at: func(r *Record) *sim.Time { return &r.Resize.At },
		call: func(o Observer, r *Record) { o.OnResize(r.Resize) }, Fields: []Field{
			{"from", func(r *Record) any { return &r.Resize.FromCores }},
			{"to", func(r *Record) any { return &r.Resize.ToCores }},
			{"mech", func(r *Record) any { return &r.Resize.Mechanism }},
			{"latency", func(r *Record) any { return &r.Resize.Latency }},
		}},
	KindChurnApplied: {Name: "churn", at: func(r *Record) *sim.Time { return &r.ChurnApplied.At },
		call: func(o Observer, r *Record) { o.OnChurnApplied(r.ChurnApplied) }, Fields: []Field{
			{"arrived", func(r *Record) any { return &r.ChurnApplied.Arrived }},
			{"departed", func(r *Record) any { return &r.ChurnApplied.Departed }},
			{"live", func(r *Record) any { return &r.ChurnApplied.LivePrimaries }},
			{"alloc", func(r *Record) any { return &r.ChurnApplied.PrimaryAlloc }},
		}},
	KindBatchProgress: {Name: "batch", at: func(r *Record) *sim.Time { return &r.BatchProgress.At },
		call: func(o Observer, r *Record) { o.OnBatchProgress(r.BatchProgress) }, Fields: []Field{
			{"job", func(r *Record) any { return &r.BatchProgress.Job }},
			{"phase", func(r *Record) any { return &r.BatchProgress.Phase }},
			{"phases", func(r *Record) any { return &r.BatchProgress.Phases }},
			{"finished", func(r *Record) any { return &r.BatchProgress.Finished }},
		}},
	KindFaultInjected: {Name: "fault", at: func(r *Record) *sim.Time { return &r.FaultInjected.At },
		call: func(o Observer, r *Record) { o.OnFaultInjected(r.FaultInjected) }, Fields: []Field{
			{"kind", func(r *Record) any { return &r.FaultInjected.Kind }},
			{"dur", func(r *Record) any { return &r.FaultInjected.Dur }},
			{"delta", func(r *Record) any { return &r.FaultInjected.Delta }},
		}},
	KindResizeRetry: {Name: "retry", at: func(r *Record) *sim.Time { return &r.ResizeRetry.At },
		call: func(o Observer, r *Record) { o.OnResizeRetry(r.ResizeRetry) }, Fields: []Field{
			{"target", func(r *Record) any { return &r.ResizeRetry.Target }},
			{"attempt", func(r *Record) any { return &r.ResizeRetry.Attempt }},
			{"backoff", func(r *Record) any { return &r.ResizeRetry.Backoff }},
		}},
	KindDegradedEnter: {Name: "degraded-enter", at: func(r *Record) *sim.Time { return &r.DegradedEnter.At },
		call: func(o Observer, r *Record) { o.OnDegradedEnter(r.DegradedEnter) }, Fields: []Field{
			{"reason", func(r *Record) any { return &r.DegradedEnter.Reason }},
			{"failures", func(r *Record) any { return &r.DegradedEnter.Failures }},
			{"missed_polls", func(r *Record) any { return &r.DegradedEnter.MissedPolls }},
		}},
	KindDegradedExit: {Name: "degraded-exit", at: func(r *Record) *sim.Time { return &r.DegradedExit.At },
		call: func(o Observer, r *Record) { o.OnDegradedExit(r.DegradedExit) }, Fields: []Field{
			{"clean_for", func(r *Record) any { return &r.DegradedExit.CleanFor }},
			{"dur", func(r *Record) any { return &r.DegradedExit.Dur }},
		}},
	KindJobSubmit: {Name: "job-submit", at: func(r *Record) *sim.Time { return &r.JobSubmit.At },
		call: func(o Observer, r *Record) { o.OnJobSubmit(r.JobSubmit) }, Fields: []Field{
			{"job", func(r *Record) any { return &r.JobSubmit.Job }},
			{"work", func(r *Record) any { return &r.JobSubmit.Work }},
			{"width", func(r *Record) any { return &r.JobSubmit.Width }},
			{"deadline", func(r *Record) any { return &r.JobSubmit.Deadline }},
		}},
	KindJobStart: {Name: "job-start", at: func(r *Record) *sim.Time { return &r.JobStart.At },
		call: func(o Observer, r *Record) { o.OnJobStart(r.JobStart) }, Fields: []Field{
			{"job", func(r *Record) any { return &r.JobStart.Job }},
			{"server", func(r *Record) any { return &r.JobStart.Server }},
			{"grant", func(r *Record) any { return &r.JobStart.Grant }},
			{"harvest", func(r *Record) any { return &r.JobStart.Harvest }},
			{"attempt", func(r *Record) any { return &r.JobStart.Attempt }},
			{"remaining", func(r *Record) any { return &r.JobStart.Remaining }},
		}},
	KindJobEvict: {Name: "job-evict", at: func(r *Record) *sim.Time { return &r.JobEvict.At },
		call: func(o Observer, r *Record) { o.OnJobEvict(r.JobEvict) }, Fields: []Field{
			{"job", func(r *Record) any { return &r.JobEvict.Job }},
			{"server", func(r *Record) any { return &r.JobEvict.Server }},
			{"progress", func(r *Record) any { return &r.JobEvict.Progress }},
			{"evictions", func(r *Record) any { return &r.JobEvict.Evictions }},
			{"final", func(r *Record) any { return &r.JobEvict.Final }},
		}},
	KindJobRequeue: {Name: "job-requeue", at: func(r *Record) *sim.Time { return &r.JobRequeue.At },
		call: func(o Observer, r *Record) { o.OnJobRequeue(r.JobRequeue) }, Fields: []Field{
			{"job", func(r *Record) any { return &r.JobRequeue.Job }},
			{"evictions", func(r *Record) any { return &r.JobRequeue.Evictions }},
			{"remaining", func(r *Record) any { return &r.JobRequeue.Remaining }},
		}},
	KindJobComplete: {Name: "job-complete", at: func(r *Record) *sim.Time { return &r.JobComplete.At },
		call: func(o Observer, r *Record) { o.OnJobComplete(r.JobComplete) }, Fields: []Field{
			{"job", func(r *Record) any { return &r.JobComplete.Job }},
			{"server", func(r *Record) any { return &r.JobComplete.Server }},
			{"elapsed", func(r *Record) any { return &r.JobComplete.Elapsed }},
			{"evictions", func(r *Record) any { return &r.JobComplete.Evictions }},
		}},
	KindJobSLOMiss: {Name: "job-slo-miss", at: func(r *Record) *sim.Time { return &r.JobSLOMiss.At },
		call: func(o Observer, r *Record) { o.OnJobSLOMiss(r.JobSLOMiss) }, Fields: []Field{
			{"job", func(r *Record) any { return &r.JobSLOMiss.Job }},
			{"deadline", func(r *Record) any { return &r.JobSLOMiss.Deadline }},
			{"late", func(r *Record) any { return &r.JobSLOMiss.Late }},
		}},
	KindPredictorInfo: {Name: "predictor", at: func(r *Record) *sim.Time { return &r.PredictorInfo.At },
		call: func(o Observer, r *Record) { o.OnPredictorInfo(r.PredictorInfo) }, Fields: []Field{
			{"name", func(r *Record) any { return &r.PredictorInfo.Name }},
			{"classes", func(r *Record) any { return &r.PredictorInfo.Classes }},
		}},
	KindServerCrash: {Name: "server-crash", at: func(r *Record) *sim.Time { return &r.ServerCrash.At },
		call: func(o Observer, r *Record) { o.OnServerCrash(r.ServerCrash) }, Fields: []Field{
			{"server", func(r *Record) any { return &r.ServerCrash.Server }},
			{"down", func(r *Record) any { return &r.ServerCrash.Down }},
		}},
	KindServerRestart: {Name: "server-restart", at: func(r *Record) *sim.Time { return &r.ServerRestart.At },
		call: func(o Observer, r *Record) { o.OnServerRestart(r.ServerRestart) }, Fields: []Field{
			{"server", func(r *Record) any { return &r.ServerRestart.Server }},
			{"down", func(r *Record) any { return &r.ServerRestart.Down }},
		}},
	KindServerQuarantine: {Name: "server-quarantine", at: func(r *Record) *sim.Time { return &r.ServerQuarantine.At },
		call: func(o Observer, r *Record) { o.OnServerQuarantine(r.ServerQuarantine) }, Fields: []Field{
			{"server", func(r *Record) any { return &r.ServerQuarantine.Server }},
			{"failures", func(r *Record) any { return &r.ServerQuarantine.Failures }},
			{"crash", func(r *Record) any { return &r.ServerQuarantine.Crash }},
			{"until", func(r *Record) any { return &r.ServerQuarantine.Until }},
		}},
	KindServerProbation: {Name: "server-probation", at: func(r *Record) *sim.Time { return &r.ServerProbation.At },
		call: func(o Observer, r *Record) { o.OnServerProbation(r.ServerProbation) }, Fields: []Field{
			{"server", func(r *Record) any { return &r.ServerProbation.Server }},
			{"until", func(r *Record) any { return &r.ServerProbation.Until }},
		}},
	KindPlacementRetry: {Name: "placement-retry", at: func(r *Record) *sim.Time { return &r.PlacementRetry.At },
		call: func(o Observer, r *Record) { o.OnPlacementRetry(r.PlacementRetry) }, Fields: []Field{
			{"job", func(r *Record) any { return &r.PlacementRetry.Job }},
			{"server", func(r *Record) any { return &r.PlacementRetry.Server }},
			{"attempt", func(r *Record) any { return &r.PlacementRetry.Attempt }},
			{"backoff", func(r *Record) any { return &r.PlacementRetry.Backoff }},
		}},
	KindAdmissionDegraded: {Name: "admission-degraded", at: func(r *Record) *sim.Time { return &r.AdmissionDegraded.At },
		call: func(o Observer, r *Record) { o.OnAdmissionDegraded(r.AdmissionDegraded) }, Fields: []Field{
			{"entered", func(r *Record) any { return &r.AdmissionDegraded.Entered }},
			{"faults", func(r *Record) any { return &r.AdmissionDegraded.Faults }},
			{"window", func(r *Record) any { return &r.AdmissionDegraded.Window }},
		}},
	KindPoolOpen: {Name: "pool-open", at: func(r *Record) *sim.Time { return &r.PoolOpen.At },
		call: func(o Observer, r *Record) { o.OnPoolOpen(r.PoolOpen) }, Fields: []Field{
			{"pool", func(r *Record) any { return &r.PoolOpen.Pool }},
			{"tier", func(r *Record) any { return &r.PoolOpen.Tier }},
			{"reserved", func(r *Record) any { return &r.PoolOpen.Reserved }},
			{"size", func(r *Record) any { return &r.PoolOpen.Size }},
			{"price", func(r *Record) any { return &r.PoolOpen.Price }},
			{"forecast", func(r *Record) any { return &r.PoolOpen.Forecast }},
			{"bound", func(r *Record) any { return &r.PoolOpen.Bound }},
			{"committed", func(r *Record) any { return &r.PoolOpen.Committed }},
		}},
	KindPoolReject: {Name: "pool-reject", at: func(r *Record) *sim.Time { return &r.PoolReject.At },
		call: func(o Observer, r *Record) { o.OnPoolReject(r.PoolReject) }, Fields: []Field{
			{"pool", func(r *Record) any { return &r.PoolReject.Pool }},
			{"tier", func(r *Record) any { return &r.PoolReject.Tier }},
			{"reserved", func(r *Record) any { return &r.PoolReject.Reserved }},
			{"forecast", func(r *Record) any { return &r.PoolReject.Forecast }},
			{"bound", func(r *Record) any { return &r.PoolReject.Bound }},
			{"committed", func(r *Record) any { return &r.PoolReject.Committed }},
		}},
	KindPoolGrant: {Name: "pool-grant", at: func(r *Record) *sim.Time { return &r.PoolGrant.At },
		call: func(o Observer, r *Record) { o.OnPoolGrant(r.PoolGrant) }, Fields: []Field{
			{"job", func(r *Record) any { return &r.PoolGrant.Job }},
			{"pool", func(r *Record) any { return &r.PoolGrant.Pool }},
			{"tier", func(r *Record) any { return &r.PoolGrant.Tier }},
			{"balance", func(r *Record) any { return &r.PoolGrant.Balance }},
		}},
	KindPoolAccount: {Name: "pool-account", at: func(r *Record) *sim.Time { return &r.PoolAccount.At },
		call: func(o Observer, r *Record) { o.OnPoolAccount(r.PoolAccount) }, Fields: []Field{
			{"pool", func(r *Record) any { return &r.PoolAccount.Pool }},
			{"refill", func(r *Record) any { return &r.PoolAccount.Refill }},
			{"drain", func(r *Record) any { return &r.PoolAccount.Drain }},
			{"balance", func(r *Record) any { return &r.PoolAccount.Balance }},
		}},
	KindPoolEvict: {Name: "pool-evict", at: func(r *Record) *sim.Time { return &r.PoolEvict.At },
		call: func(o Observer, r *Record) { o.OnPoolEvict(r.PoolEvict) }, Fields: []Field{
			{"job", func(r *Record) any { return &r.PoolEvict.Job }},
			{"pool", func(r *Record) any { return &r.PoolEvict.Pool }},
			{"tier", func(r *Record) any { return &r.PoolEvict.Tier }},
			{"reason", func(r *Record) any { return &r.PoolEvict.Reason }},
			{"evictions", func(r *Record) any { return &r.PoolEvict.Evictions }},
			{"violation", func(r *Record) any { return &r.PoolEvict.SLAViolation }},
			{"penalty", func(r *Record) any { return &r.PoolEvict.Penalty }},
		}},
	KindPoolSettle: {Name: "pool-settle", at: func(r *Record) *sim.Time { return &r.PoolSettle.At },
		call: func(o Observer, r *Record) { o.OnPoolSettle(r.PoolSettle) }, Fields: []Field{
			{"pool", func(r *Record) any { return &r.PoolSettle.Pool }},
			{"consumed", func(r *Record) any { return &r.PoolSettle.Consumed }},
			{"revenue", func(r *Record) any { return &r.PoolSettle.Revenue }},
			{"penalties", func(r *Record) any { return &r.PoolSettle.Penalties }},
			{"evictions", func(r *Record) any { return &r.PoolSettle.Evictions }},
			{"violations", func(r *Record) any { return &r.PoolSettle.Violations }},
		}},
}
