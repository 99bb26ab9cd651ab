package obs

// Adapter is the one implementation of the 31-method Observer on top of
// a Sink: each On* method fills a scratch Record with the event and hands
// the owner a pointer to it. A sink type embeds an Adapter and points
// Sink back at itself at construction, which makes a pointer to it an
// Observer:
//
//	type mySink struct{ obs.Adapter; ... }
//	s := &mySink{}
//	s.Sink = s
//
// The scratch Record lives inside the owner, so delivering an event
// allocates nothing. An Adapter must not be copied after first use and is
// not reentrant: Observe must not emit into its own Adapter.
type Adapter struct {
	// Sink receives every event; set it once, before the first event.
	Sink Sink
	rec  Record
}

// emit delivers e as a Record of kind k. field is the union member of
// a.rec that k selects; it is cleared again after the call, so between
// events the scratch Record is all zero and every delivered Record has
// exactly one member populated — at a cost proportional to the event's
// own size, not to the union's.
func emit[E any](a *Adapter, k Kind, field *E, e E) {
	a.rec.Kind = k
	*field = e
	a.Sink.Observe(&a.rec)
	var zero E
	*field = zero
}

func (a *Adapter) OnPollSample(e PollSample) { emit(a, KindPollSample, &a.rec.PollSample, e) }
func (a *Adapter) OnWindowEnd(e WindowEnd)   { emit(a, KindWindowEnd, &a.rec.WindowEnd, e) }
func (a *Adapter) OnSafeguardTrip(e SafeguardTrip) {
	emit(a, KindSafeguardTrip, &a.rec.SafeguardTrip, e)
}
func (a *Adapter) OnQoSTrip(e QoSTrip)           { emit(a, KindQoSTrip, &a.rec.QoSTrip, e) }
func (a *Adapter) OnQoSResume(e QoSResume)       { emit(a, KindQoSResume, &a.rec.QoSResume, e) }
func (a *Adapter) OnResize(e Resize)             { emit(a, KindResize, &a.rec.Resize, e) }
func (a *Adapter) OnChurnApplied(e ChurnApplied) { emit(a, KindChurnApplied, &a.rec.ChurnApplied, e) }
func (a *Adapter) OnBatchProgress(e BatchProgress) {
	emit(a, KindBatchProgress, &a.rec.BatchProgress, e)
}
func (a *Adapter) OnFaultInjected(e FaultInjected) {
	emit(a, KindFaultInjected, &a.rec.FaultInjected, e)
}
func (a *Adapter) OnResizeRetry(e ResizeRetry) { emit(a, KindResizeRetry, &a.rec.ResizeRetry, e) }
func (a *Adapter) OnDegradedEnter(e DegradedEnter) {
	emit(a, KindDegradedEnter, &a.rec.DegradedEnter, e)
}
func (a *Adapter) OnDegradedExit(e DegradedExit) { emit(a, KindDegradedExit, &a.rec.DegradedExit, e) }
func (a *Adapter) OnJobSubmit(e JobSubmit)       { emit(a, KindJobSubmit, &a.rec.JobSubmit, e) }
func (a *Adapter) OnJobStart(e JobStart)         { emit(a, KindJobStart, &a.rec.JobStart, e) }
func (a *Adapter) OnJobEvict(e JobEvict)         { emit(a, KindJobEvict, &a.rec.JobEvict, e) }
func (a *Adapter) OnJobRequeue(e JobRequeue)     { emit(a, KindJobRequeue, &a.rec.JobRequeue, e) }
func (a *Adapter) OnJobComplete(e JobComplete)   { emit(a, KindJobComplete, &a.rec.JobComplete, e) }
func (a *Adapter) OnJobSLOMiss(e JobSLOMiss)     { emit(a, KindJobSLOMiss, &a.rec.JobSLOMiss, e) }
func (a *Adapter) OnServerCrash(e ServerCrash)   { emit(a, KindServerCrash, &a.rec.ServerCrash, e) }
func (a *Adapter) OnServerRestart(e ServerRestart) {
	emit(a, KindServerRestart, &a.rec.ServerRestart, e)
}
func (a *Adapter) OnServerQuarantine(e ServerQuarantine) {
	emit(a, KindServerQuarantine, &a.rec.ServerQuarantine, e)
}
func (a *Adapter) OnServerProbation(e ServerProbation) {
	emit(a, KindServerProbation, &a.rec.ServerProbation, e)
}
func (a *Adapter) OnPlacementRetry(e PlacementRetry) {
	emit(a, KindPlacementRetry, &a.rec.PlacementRetry, e)
}
func (a *Adapter) OnAdmissionDegraded(e AdmissionDegraded) {
	emit(a, KindAdmissionDegraded, &a.rec.AdmissionDegraded, e)
}
func (a *Adapter) OnPredictorInfo(e PredictorInfo) {
	emit(a, KindPredictorInfo, &a.rec.PredictorInfo, e)
}
func (a *Adapter) OnPoolOpen(e PoolOpen)       { emit(a, KindPoolOpen, &a.rec.PoolOpen, e) }
func (a *Adapter) OnPoolReject(e PoolReject)   { emit(a, KindPoolReject, &a.rec.PoolReject, e) }
func (a *Adapter) OnPoolGrant(e PoolGrant)     { emit(a, KindPoolGrant, &a.rec.PoolGrant, e) }
func (a *Adapter) OnPoolAccount(e PoolAccount) { emit(a, KindPoolAccount, &a.rec.PoolAccount, e) }
func (a *Adapter) OnPoolEvict(e PoolEvict)     { emit(a, KindPoolEvict, &a.rec.PoolEvict, e) }
func (a *Adapter) OnPoolSettle(e PoolSettle)   { emit(a, KindPoolSettle, &a.rec.PoolSettle, e) }

// Dispatch is the Adapter's inverse: it delivers r to o through the typed
// method r.Kind selects. Multi uses it for observers that are not Sinks;
// replaying a captured stream into any Observer is a loop over Dispatch.
// A Record of unknown Kind is dropped.
func Dispatch(o Observer, r *Record) {
	switch r.Kind {
	case KindPollSample:
		o.OnPollSample(r.PollSample)
	case KindWindowEnd:
		o.OnWindowEnd(r.WindowEnd)
	case KindSafeguardTrip:
		o.OnSafeguardTrip(r.SafeguardTrip)
	case KindQoSTrip:
		o.OnQoSTrip(r.QoSTrip)
	case KindQoSResume:
		o.OnQoSResume(r.QoSResume)
	case KindResize:
		o.OnResize(r.Resize)
	case KindChurnApplied:
		o.OnChurnApplied(r.ChurnApplied)
	case KindBatchProgress:
		o.OnBatchProgress(r.BatchProgress)
	case KindFaultInjected:
		o.OnFaultInjected(r.FaultInjected)
	case KindResizeRetry:
		o.OnResizeRetry(r.ResizeRetry)
	case KindDegradedEnter:
		o.OnDegradedEnter(r.DegradedEnter)
	case KindDegradedExit:
		o.OnDegradedExit(r.DegradedExit)
	case KindJobSubmit:
		o.OnJobSubmit(r.JobSubmit)
	case KindJobStart:
		o.OnJobStart(r.JobStart)
	case KindJobEvict:
		o.OnJobEvict(r.JobEvict)
	case KindJobRequeue:
		o.OnJobRequeue(r.JobRequeue)
	case KindJobComplete:
		o.OnJobComplete(r.JobComplete)
	case KindJobSLOMiss:
		o.OnJobSLOMiss(r.JobSLOMiss)
	case KindPredictorInfo:
		o.OnPredictorInfo(r.PredictorInfo)
	case KindServerCrash:
		o.OnServerCrash(r.ServerCrash)
	case KindServerRestart:
		o.OnServerRestart(r.ServerRestart)
	case KindServerQuarantine:
		o.OnServerQuarantine(r.ServerQuarantine)
	case KindServerProbation:
		o.OnServerProbation(r.ServerProbation)
	case KindPlacementRetry:
		o.OnPlacementRetry(r.PlacementRetry)
	case KindAdmissionDegraded:
		o.OnAdmissionDegraded(r.AdmissionDegraded)
	case KindPoolOpen:
		o.OnPoolOpen(r.PoolOpen)
	case KindPoolReject:
		o.OnPoolReject(r.PoolReject)
	case KindPoolGrant:
		o.OnPoolGrant(r.PoolGrant)
	case KindPoolAccount:
		o.OnPoolAccount(r.PoolAccount)
	case KindPoolEvict:
		o.OnPoolEvict(r.PoolEvict)
	case KindPoolSettle:
		o.OnPoolSettle(r.PoolSettle)
	}
}
