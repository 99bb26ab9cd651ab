package obs

// Kind discriminates Record's union.
type Kind uint8

const (
	KindPollSample Kind = iota
	KindWindowEnd
	KindSafeguardTrip
	KindQoSTrip
	KindQoSResume
	KindResize
	KindChurnApplied
	KindBatchProgress
	KindFaultInjected
	KindResizeRetry
	KindDegradedEnter
	KindDegradedExit
	KindJobSubmit
	KindJobStart
	KindJobEvict
	KindJobRequeue
	KindJobComplete
	KindJobSLOMiss
	KindPredictorInfo
	KindServerCrash
	KindServerRestart
	KindServerQuarantine
	KindServerProbation
	KindPlacementRetry
	KindAdmissionDegraded
	KindPoolOpen
	KindPoolReject
	KindPoolGrant
	KindPoolAccount
	KindPoolEvict
	KindPoolSettle

	numKinds
)

// Record is the event envelope: one event of any kind, with Kind
// selecting which member is populated (the rest are zero). Sinks receive
// a pointer to one per event; Ring stores them by value, so a warm ring
// performs no per-event allocation.
type Record struct {
	Kind          Kind
	PollSample    PollSample
	WindowEnd     WindowEnd
	SafeguardTrip SafeguardTrip
	QoSTrip       QoSTrip
	QoSResume     QoSResume
	Resize        Resize
	ChurnApplied  ChurnApplied
	BatchProgress BatchProgress
	FaultInjected FaultInjected
	ResizeRetry   ResizeRetry
	DegradedEnter DegradedEnter
	DegradedExit  DegradedExit
	JobSubmit     JobSubmit
	JobStart      JobStart
	JobEvict      JobEvict
	JobRequeue    JobRequeue
	JobComplete   JobComplete
	JobSLOMiss    JobSLOMiss
	PredictorInfo PredictorInfo

	ServerCrash       ServerCrash
	ServerRestart     ServerRestart
	ServerQuarantine  ServerQuarantine
	ServerProbation   ServerProbation
	PlacementRetry    PlacementRetry
	AdmissionDegraded AdmissionDegraded

	PoolOpen    PoolOpen
	PoolReject  PoolReject
	PoolGrant   PoolGrant
	PoolAccount PoolAccount
	PoolEvict   PoolEvict
	PoolSettle  PoolSettle
}

// Ring is the in-memory flight-recorder sink: it keeps the most recent
// events in a fixed-capacity circular buffer and counts everything it has
// seen. The zero value is not usable; call NewRing.
type Ring struct {
	Adapter
	buf   []Record
	next  int  // index the next record is written to
	full  bool // buf has wrapped at least once
	total [numKinds]uint64
}

// NewRing returns a ring keeping the most recent capacity events.
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		panic("obs: ring capacity must be >= 1")
	}
	r := &Ring{buf: make([]Record, capacity)}
	r.Sink = r
	return r
}

// Len returns how many events are currently buffered.
func (r *Ring) Len() int {
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Total returns how many events of kind k have been observed overall,
// including ones that have since been overwritten.
func (r *Ring) Total(k Kind) uint64 {
	if k >= numKinds {
		return 0
	}
	return r.total[k]
}

// TotalEvents returns how many events of any kind have been observed.
func (r *Ring) TotalEvents() uint64 {
	var n uint64
	for _, c := range r.total {
		n += c
	}
	return n
}

// Records returns the buffered events, oldest first. The slice is a copy.
func (r *Ring) Records() []Record {
	out := make([]Record, 0, r.Len())
	if r.full {
		out = append(out, r.buf[r.next:]...)
	}
	return append(out, r.buf[:r.next]...)
}

// Reset clears the buffer and the totals.
func (r *Ring) Reset() {
	r.next = 0
	r.full = false
	r.total = [numKinds]uint64{}
}

// Observe implements Sink: it stores a copy of rec.
func (r *Ring) Observe(rec *Record) {
	r.buf[r.next] = *rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total[rec.Kind]++
}
