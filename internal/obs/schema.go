package obs

import "smartharvest/internal/sim"

// EventSchema is one row of the descriptor table: everything about an
// event kind that is not its Go struct. The table is the single owner of
// the JSONL trace format — the encoder, Kind.String, Record.At,
// check.ValidateTrace and the DESIGN.md §6 schema table all read it.
type EventSchema struct {
	// Name is the kind's wire name: the "ev" value of its trace lines
	// and its Kind.String.
	Name string
	// Fields are the per-event trace fields in line order, after the
	// common "v"/"ev"/"t" prefix.
	Fields []Field

	at func(*Record) sim.Time
}

// Field is one per-event field of a trace line.
type Field struct {
	// Name is the JSON key.
	Name string
	// Type is the field's JSON-level type: "int", "float", "bool" or
	// "string".
	Type string
	// Enum is the closed set of values a string field may carry; nil
	// when the set is open.
	Enum []string

	// Exactly one getter is set, the one Type names.
	i func(*Record) int64
	f func(*Record) float64
	b func(*Record) bool
	s func(*Record) string
}

func intF(name string, get func(*Record) int64) Field { return Field{Name: name, Type: "int", i: get} }
func floatF(name string, get func(*Record) float64) Field {
	return Field{Name: name, Type: "float", f: get}
}
func boolF(name string, get func(*Record) bool) Field { return Field{Name: name, Type: "bool", b: get} }
func strF(name string, get func(*Record) string) Field {
	return Field{Name: name, Type: "string", s: get}
}
func enumF(name string, values []string, get func(*Record) string) Field {
	return Field{Name: name, Type: "string", Enum: values, s: get}
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
func (r *Record) At() sim.Time { return schema[r.Kind].at(r) }

var schema = [numKinds]EventSchema{
	KindPollSample: {Name: "poll", at: func(r *Record) sim.Time { return r.PollSample.At }, Fields: []Field{
		intF("busy", func(r *Record) int64 { return int64(r.PollSample.Busy) }),
		intF("target", func(r *Record) int64 { return int64(r.PollSample.Target) }),
	}},
	KindWindowEnd: {Name: "window", at: func(r *Record) sim.Time { return r.WindowEnd.At }, Fields: []Field{
		intF("seq", func(r *Record) int64 { return int64(r.WindowEnd.Seq) }),
		intF("samples", func(r *Record) int64 { return int64(r.WindowEnd.Samples) }),
		intF("min", func(r *Record) int64 { return int64(r.WindowEnd.Features.Min) }),
		intF("peak", func(r *Record) int64 { return int64(r.WindowEnd.Features.Max) }),
		floatF("avg", func(r *Record) float64 { return r.WindowEnd.Features.Avg }),
		floatF("std", func(r *Record) float64 { return r.WindowEnd.Features.Std }),
		floatF("median", func(r *Record) float64 { return r.WindowEnd.Features.Median }),
		intF("peak1s", func(r *Record) int64 { return int64(r.WindowEnd.Peak1s) }),
		intF("busy", func(r *Record) int64 { return int64(r.WindowEnd.Busy) }),
		boolF("safeguard", func(r *Record) bool { return r.WindowEnd.Safeguard }),
		intF("pred", func(r *Record) int64 { return int64(r.WindowEnd.Prediction) }),
		intF("target", func(r *Record) int64 { return int64(r.WindowEnd.Target) }),
		enumF("clamp", clampNames.Names, func(r *Record) string { return r.WindowEnd.Clamp.String() }),
	}},
	KindSafeguardTrip: {Name: "safeguard", at: func(r *Record) sim.Time { return r.SafeguardTrip.At }, Fields: []Field{
		intF("busy", func(r *Record) int64 { return int64(r.SafeguardTrip.Busy) }),
		intF("target", func(r *Record) int64 { return int64(r.SafeguardTrip.Target) }),
	}},
	KindQoSTrip: {Name: "qos-trip", at: func(r *Record) sim.Time { return r.QoSTrip.At }, Fields: []Field{
		floatF("frac", func(r *Record) float64 { return r.QoSTrip.Frac }),
		intF("waits", func(r *Record) int64 { return int64(r.QoSTrip.Waits) }),
		intF("pause_until", func(r *Record) int64 { return int64(r.QoSTrip.PauseUntil) }),
	}},
	KindQoSResume: {Name: "qos-resume", at: func(r *Record) sim.Time { return r.QoSResume.At }},
	KindResize: {Name: "resize", at: func(r *Record) sim.Time { return r.Resize.At }, Fields: []Field{
		intF("from", func(r *Record) int64 { return int64(r.Resize.FromCores) }),
		intF("to", func(r *Record) int64 { return int64(r.Resize.ToCores) }),
		strF("mech", func(r *Record) string { return r.Resize.Mechanism }),
		intF("latency", func(r *Record) int64 { return int64(r.Resize.Latency) }),
	}},
	KindChurnApplied: {Name: "churn", at: func(r *Record) sim.Time { return r.ChurnApplied.At }, Fields: []Field{
		strF("arrived", func(r *Record) string { return r.ChurnApplied.Arrived }),
		intF("departed", func(r *Record) int64 { return int64(r.ChurnApplied.Departed) }),
		intF("live", func(r *Record) int64 { return int64(r.ChurnApplied.LivePrimaries) }),
		intF("alloc", func(r *Record) int64 { return int64(r.ChurnApplied.PrimaryAlloc) }),
	}},
	KindBatchProgress: {Name: "batch", at: func(r *Record) sim.Time { return r.BatchProgress.At }, Fields: []Field{
		strF("job", func(r *Record) string { return r.BatchProgress.Job }),
		intF("phase", func(r *Record) int64 { return int64(r.BatchProgress.Phase) }),
		intF("phases", func(r *Record) int64 { return int64(r.BatchProgress.Phases) }),
		boolF("finished", func(r *Record) bool { return r.BatchProgress.Finished }),
	}},
	KindFaultInjected: {Name: "fault", at: func(r *Record) sim.Time { return r.FaultInjected.At }, Fields: []Field{
		enumF("kind", faultNames.Names, func(r *Record) string { return r.FaultInjected.Kind.String() }),
		intF("dur", func(r *Record) int64 { return int64(r.FaultInjected.Dur) }),
		intF("delta", func(r *Record) int64 { return int64(r.FaultInjected.Delta) }),
	}},
	KindResizeRetry: {Name: "retry", at: func(r *Record) sim.Time { return r.ResizeRetry.At }, Fields: []Field{
		intF("target", func(r *Record) int64 { return int64(r.ResizeRetry.Target) }),
		intF("attempt", func(r *Record) int64 { return int64(r.ResizeRetry.Attempt) }),
		intF("backoff", func(r *Record) int64 { return int64(r.ResizeRetry.Backoff) }),
	}},
	KindDegradedEnter: {Name: "degraded-enter", at: func(r *Record) sim.Time { return r.DegradedEnter.At }, Fields: []Field{
		enumF("reason", degradeNames.Names, func(r *Record) string { return r.DegradedEnter.Reason.String() }),
		intF("failures", func(r *Record) int64 { return int64(r.DegradedEnter.Failures) }),
		intF("missed_polls", func(r *Record) int64 { return int64(r.DegradedEnter.MissedPolls) }),
	}},
	KindDegradedExit: {Name: "degraded-exit", at: func(r *Record) sim.Time { return r.DegradedExit.At }, Fields: []Field{
		intF("clean_for", func(r *Record) int64 { return int64(r.DegradedExit.CleanFor) }),
		intF("dur", func(r *Record) int64 { return int64(r.DegradedExit.Dur) }),
	}},
	KindJobSubmit: {Name: "job-submit", at: func(r *Record) sim.Time { return r.JobSubmit.At }, Fields: []Field{
		strF("job", func(r *Record) string { return r.JobSubmit.Job }),
		intF("work", func(r *Record) int64 { return int64(r.JobSubmit.Work) }),
		intF("width", func(r *Record) int64 { return int64(r.JobSubmit.Width) }),
		intF("deadline", func(r *Record) int64 { return int64(r.JobSubmit.Deadline) }),
	}},
	KindJobStart: {Name: "job-start", at: func(r *Record) sim.Time { return r.JobStart.At }, Fields: []Field{
		strF("job", func(r *Record) string { return r.JobStart.Job }),
		intF("server", func(r *Record) int64 { return int64(r.JobStart.Server) }),
		intF("grant", func(r *Record) int64 { return int64(r.JobStart.Grant) }),
		intF("harvest", func(r *Record) int64 { return int64(r.JobStart.Harvest) }),
		intF("attempt", func(r *Record) int64 { return int64(r.JobStart.Attempt) }),
		intF("remaining", func(r *Record) int64 { return int64(r.JobStart.Remaining) }),
	}},
	KindJobEvict: {Name: "job-evict", at: func(r *Record) sim.Time { return r.JobEvict.At }, Fields: []Field{
		strF("job", func(r *Record) string { return r.JobEvict.Job }),
		intF("server", func(r *Record) int64 { return int64(r.JobEvict.Server) }),
		intF("progress", func(r *Record) int64 { return int64(r.JobEvict.Progress) }),
		intF("evictions", func(r *Record) int64 { return int64(r.JobEvict.Evictions) }),
		boolF("final", func(r *Record) bool { return r.JobEvict.Final }),
	}},
	KindJobRequeue: {Name: "job-requeue", at: func(r *Record) sim.Time { return r.JobRequeue.At }, Fields: []Field{
		strF("job", func(r *Record) string { return r.JobRequeue.Job }),
		intF("evictions", func(r *Record) int64 { return int64(r.JobRequeue.Evictions) }),
		intF("remaining", func(r *Record) int64 { return int64(r.JobRequeue.Remaining) }),
	}},
	KindJobComplete: {Name: "job-complete", at: func(r *Record) sim.Time { return r.JobComplete.At }, Fields: []Field{
		strF("job", func(r *Record) string { return r.JobComplete.Job }),
		intF("server", func(r *Record) int64 { return int64(r.JobComplete.Server) }),
		intF("elapsed", func(r *Record) int64 { return int64(r.JobComplete.Elapsed) }),
		intF("evictions", func(r *Record) int64 { return int64(r.JobComplete.Evictions) }),
	}},
	KindJobSLOMiss: {Name: "job-slo-miss", at: func(r *Record) sim.Time { return r.JobSLOMiss.At }, Fields: []Field{
		strF("job", func(r *Record) string { return r.JobSLOMiss.Job }),
		intF("deadline", func(r *Record) int64 { return int64(r.JobSLOMiss.Deadline) }),
		intF("late", func(r *Record) int64 { return int64(r.JobSLOMiss.Late) }),
	}},
	KindPredictorInfo: {Name: "predictor", at: func(r *Record) sim.Time { return r.PredictorInfo.At }, Fields: []Field{
		strF("name", func(r *Record) string { return r.PredictorInfo.Name }),
		intF("classes", func(r *Record) int64 { return int64(r.PredictorInfo.Classes) }),
	}},
	KindServerCrash: {Name: "server-crash", at: func(r *Record) sim.Time { return r.ServerCrash.At }, Fields: []Field{
		intF("server", func(r *Record) int64 { return int64(r.ServerCrash.Server) }),
		intF("down", func(r *Record) int64 { return int64(r.ServerCrash.Down) }),
	}},
	KindServerRestart: {Name: "server-restart", at: func(r *Record) sim.Time { return r.ServerRestart.At }, Fields: []Field{
		intF("server", func(r *Record) int64 { return int64(r.ServerRestart.Server) }),
		intF("down", func(r *Record) int64 { return int64(r.ServerRestart.Down) }),
	}},
	KindServerQuarantine: {Name: "server-quarantine", at: func(r *Record) sim.Time { return r.ServerQuarantine.At }, Fields: []Field{
		intF("server", func(r *Record) int64 { return int64(r.ServerQuarantine.Server) }),
		intF("failures", func(r *Record) int64 { return int64(r.ServerQuarantine.Failures) }),
		boolF("crash", func(r *Record) bool { return r.ServerQuarantine.Crash }),
		intF("until", func(r *Record) int64 { return int64(r.ServerQuarantine.Until) }),
	}},
	KindServerProbation: {Name: "server-probation", at: func(r *Record) sim.Time { return r.ServerProbation.At }, Fields: []Field{
		intF("server", func(r *Record) int64 { return int64(r.ServerProbation.Server) }),
		intF("until", func(r *Record) int64 { return int64(r.ServerProbation.Until) }),
	}},
	KindPlacementRetry: {Name: "placement-retry", at: func(r *Record) sim.Time { return r.PlacementRetry.At }, Fields: []Field{
		strF("job", func(r *Record) string { return r.PlacementRetry.Job }),
		intF("server", func(r *Record) int64 { return int64(r.PlacementRetry.Server) }),
		intF("attempt", func(r *Record) int64 { return int64(r.PlacementRetry.Attempt) }),
		intF("backoff", func(r *Record) int64 { return int64(r.PlacementRetry.Backoff) }),
	}},
	KindAdmissionDegraded: {Name: "admission-degraded", at: func(r *Record) sim.Time { return r.AdmissionDegraded.At }, Fields: []Field{
		boolF("entered", func(r *Record) bool { return r.AdmissionDegraded.Entered }),
		intF("faults", func(r *Record) int64 { return int64(r.AdmissionDegraded.Faults) }),
		intF("window", func(r *Record) int64 { return int64(r.AdmissionDegraded.Window) }),
	}},
	KindPoolOpen: {Name: "pool-open", at: func(r *Record) sim.Time { return r.PoolOpen.At }, Fields: []Field{
		strF("pool", func(r *Record) string { return r.PoolOpen.Pool }),
		strF("tier", func(r *Record) string { return r.PoolOpen.Tier }),
		intF("reserved", func(r *Record) int64 { return int64(r.PoolOpen.Reserved) }),
		intF("size", func(r *Record) int64 { return int64(r.PoolOpen.Size) }),
		floatF("price", func(r *Record) float64 { return r.PoolOpen.Price }),
		intF("forecast", func(r *Record) int64 { return int64(r.PoolOpen.Forecast) }),
		floatF("bound", func(r *Record) float64 { return r.PoolOpen.Bound }),
		intF("committed", func(r *Record) int64 { return int64(r.PoolOpen.Committed) }),
	}},
	KindPoolReject: {Name: "pool-reject", at: func(r *Record) sim.Time { return r.PoolReject.At }, Fields: []Field{
		strF("pool", func(r *Record) string { return r.PoolReject.Pool }),
		strF("tier", func(r *Record) string { return r.PoolReject.Tier }),
		intF("reserved", func(r *Record) int64 { return int64(r.PoolReject.Reserved) }),
		intF("forecast", func(r *Record) int64 { return int64(r.PoolReject.Forecast) }),
		floatF("bound", func(r *Record) float64 { return r.PoolReject.Bound }),
		intF("committed", func(r *Record) int64 { return int64(r.PoolReject.Committed) }),
	}},
	KindPoolGrant: {Name: "pool-grant", at: func(r *Record) sim.Time { return r.PoolGrant.At }, Fields: []Field{
		strF("job", func(r *Record) string { return r.PoolGrant.Job }),
		strF("pool", func(r *Record) string { return r.PoolGrant.Pool }),
		strF("tier", func(r *Record) string { return r.PoolGrant.Tier }),
		intF("balance", func(r *Record) int64 { return int64(r.PoolGrant.Balance) }),
	}},
	KindPoolAccount: {Name: "pool-account", at: func(r *Record) sim.Time { return r.PoolAccount.At }, Fields: []Field{
		strF("pool", func(r *Record) string { return r.PoolAccount.Pool }),
		intF("refill", func(r *Record) int64 { return int64(r.PoolAccount.Refill) }),
		intF("drain", func(r *Record) int64 { return int64(r.PoolAccount.Drain) }),
		intF("balance", func(r *Record) int64 { return int64(r.PoolAccount.Balance) }),
	}},
	KindPoolEvict: {Name: "pool-evict", at: func(r *Record) sim.Time { return r.PoolEvict.At }, Fields: []Field{
		strF("job", func(r *Record) string { return r.PoolEvict.Job }),
		strF("pool", func(r *Record) string { return r.PoolEvict.Pool }),
		strF("tier", func(r *Record) string { return r.PoolEvict.Tier }),
		strF("reason", func(r *Record) string { return r.PoolEvict.Reason }),
		intF("evictions", func(r *Record) int64 { return int64(r.PoolEvict.Evictions) }),
		boolF("violation", func(r *Record) bool { return r.PoolEvict.SLAViolation }),
		floatF("penalty", func(r *Record) float64 { return r.PoolEvict.Penalty }),
	}},
	KindPoolSettle: {Name: "pool-settle", at: func(r *Record) sim.Time { return r.PoolSettle.At }, Fields: []Field{
		strF("pool", func(r *Record) string { return r.PoolSettle.Pool }),
		intF("consumed", func(r *Record) int64 { return int64(r.PoolSettle.Consumed) }),
		floatF("revenue", func(r *Record) float64 { return r.PoolSettle.Revenue }),
		floatF("penalties", func(r *Record) float64 { return r.PoolSettle.Penalties }),
		intF("evictions", func(r *Record) int64 { return int64(r.PoolSettle.Evictions) }),
		intF("violations", func(r *Record) int64 { return int64(r.PoolSettle.Violations) }),
	}},
}
