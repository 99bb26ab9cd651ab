package obs

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"smartharvest/internal/sim"
)

// feedAll sends one event of every kind to o, in kind order, and returns
// how many were sent.
func feedAll(o Observer) int {
	o.OnPollSample(PollSample{At: 50 * sim.Microsecond, Busy: 3, Target: 5})
	o.OnWindowEnd(WindowEnd{
		At: 25 * sim.Millisecond, Seq: 1, Samples: 500,
		Features: Features{Min: 1, Max: 4, Avg: 2.5, Std: 0.5, Median: 2},
		Peak1s:   4, Busy: 3, Safeguard: false,
		Prediction: 2, Target: 4, Clamp: ClampBusyFloor,
	})
	o.OnSafeguardTrip(SafeguardTrip{At: 30 * sim.Millisecond, Busy: 5, Target: 5})
	o.OnQoSTrip(QoSTrip{At: sim.Second, Frac: 0.25, Waits: 400, PauseUntil: 11 * sim.Second})
	o.OnQoSResume(QoSResume{At: 11 * sim.Second})
	o.OnResize(Resize{At: 2 * sim.Second, FromCores: 10, ToCores: 4,
		Mechanism: "cpugroups", Latency: 800 * sim.Microsecond})
	o.OnChurnApplied(ChurnApplied{At: 3 * sim.Second, Arrived: "memcached",
		Departed: -1, LivePrimaries: 2, PrimaryAlloc: 20})
	o.OnBatchProgress(BatchProgress{At: 4 * sim.Second, Job: "terasort",
		Phase: 6, Phases: 6, Finished: true})
	o.OnFaultInjected(FaultInjected{At: 5 * sim.Second, Kind: FaultHypercallFail,
		Dur: 2 * sim.Millisecond, Delta: 0})
	o.OnResizeRetry(ResizeRetry{At: 5*sim.Second + sim.Millisecond, Target: 4,
		Attempt: 2, Backoff: 2 * sim.Millisecond})
	o.OnDegradedEnter(DegradedEnter{At: 6 * sim.Second, Reason: DegradeResizeFailures,
		Failures: 3, MissedPolls: 0})
	o.OnDegradedExit(DegradedExit{At: 8 * sim.Second, CleanFor: sim.Second,
		Dur: 2 * sim.Second})
	o.OnJobSubmit(JobSubmit{At: 9 * sim.Second, Job: "job-0",
		Work: 4 * sim.Second, Width: 4, Deadline: 19 * sim.Second})
	o.OnJobStart(JobStart{At: 9*sim.Second + sim.Millisecond, Job: "job-0",
		Server: 2, Grant: 3, Harvest: 5, Attempt: 1, Remaining: 4 * sim.Second})
	o.OnJobEvict(JobEvict{At: 10 * sim.Second, Job: "job-0", Server: 2,
		Progress: sim.Second, Evictions: 1, Final: false})
	o.OnJobRequeue(JobRequeue{At: 10 * sim.Second, Job: "job-0",
		Evictions: 1, Remaining: 3 * sim.Second})
	o.OnJobComplete(JobComplete{At: 14 * sim.Second, Job: "job-0", Server: 1,
		Elapsed: 5 * sim.Second, Evictions: 1})
	o.OnJobSLOMiss(JobSLOMiss{At: 20 * sim.Second, Job: "job-0",
		Deadline: 19 * sim.Second, Late: sim.Second})
	o.OnPredictorInfo(PredictorInfo{At: 20 * sim.Second, Name: "ensemble", Classes: 11})
	o.OnServerCrash(ServerCrash{At: 21 * sim.Second, Server: 2, Down: 500 * sim.Millisecond})
	o.OnServerRestart(ServerRestart{At: 21*sim.Second + 500*sim.Millisecond, Server: 2,
		Down: 500 * sim.Millisecond})
	o.OnServerQuarantine(ServerQuarantine{At: 22 * sim.Second, Server: 2, Failures: 3,
		Crash: true, Until: 22*sim.Second + 200*sim.Millisecond})
	o.OnServerProbation(ServerProbation{At: 22*sim.Second + 200*sim.Millisecond, Server: 2,
		Until: 22*sim.Second + 600*sim.Millisecond})
	o.OnPlacementRetry(PlacementRetry{At: 23 * sim.Second, Job: "job-0", Server: 1,
		Attempt: 2, Backoff: 4 * sim.Millisecond})
	o.OnAdmissionDegraded(AdmissionDegraded{At: 24 * sim.Second, Entered: true,
		Faults: 9, Window: 250 * sim.Millisecond})
	o.OnPoolOpen(PoolOpen{At: 25 * sim.Second, Pool: "acme", Tier: "standard",
		Reserved: 4, Size: 40 * sim.Second, Price: 0.5, Forecast: 8, Bound: 12,
		Committed: 4})
	o.OnPoolReject(PoolReject{At: 25 * sim.Second, Pool: "big", Tier: "premium",
		Reserved: 9, Forecast: 8, Bound: 6, Committed: 0})
	o.OnPoolGrant(PoolGrant{At: 26 * sim.Second, Job: "job-0", Pool: "acme",
		Tier: "standard", Balance: 30 * sim.Second})
	o.OnPoolAccount(PoolAccount{At: 27 * sim.Second, Pool: "acme",
		Refill: 2 * sim.Second, Drain: sim.Second, Balance: 31 * sim.Second})
	o.OnPoolEvict(PoolEvict{At: 28 * sim.Second, Job: "job-0", Pool: "acme",
		Tier: "standard", Reason: "capacity", Evictions: 4, SLAViolation: true,
		Penalty: 1})
	o.OnPoolSettle(PoolSettle{At: 29 * sim.Second, Pool: "acme",
		Consumed: 9 * sim.Second, Revenue: 4.5, Penalties: 1, Evictions: 4,
		Violations: 1})
	return 31
}

func TestRingKeepsMostRecent(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.OnPollSample(PollSample{At: sim.Time(i), Busy: i})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if r.Total(KindPollSample) != 5 {
		t.Fatalf("Total = %d, want 5", r.Total(KindPollSample))
	}
	recs := r.Records()
	for i, rec := range recs {
		if rec.Kind != KindPollSample {
			t.Fatalf("record %d kind %v", i, rec.Kind)
		}
		if want := i + 2; rec.PollSample.Busy != want {
			t.Fatalf("record %d busy %d, want %d (oldest-first)", i, rec.PollSample.Busy, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.TotalEvents() != 0 {
		t.Fatalf("after Reset: Len=%d TotalEvents=%d", r.Len(), r.TotalEvents())
	}
}

func TestRingRecordsAllKinds(t *testing.T) {
	r := NewRing(32)
	n := feedAll(r)
	if int(r.TotalEvents()) != n {
		t.Fatalf("TotalEvents = %d, want %d", r.TotalEvents(), n)
	}
	recs := r.Records()
	if len(recs) != n {
		t.Fatalf("Records len %d, want %d", len(recs), n)
	}
	for k := Kind(0); k < numKinds; k++ {
		if r.Total(k) != 1 {
			t.Fatalf("Total(%v) = %d, want 1", k, r.Total(k))
		}
		if recs[int(k)].Kind != k {
			t.Fatalf("record %d kind %v, want %v", k, recs[int(k)].Kind, k)
		}
	}
	if recs[KindResize].Resize.Mechanism != "cpugroups" {
		t.Fatalf("resize payload lost: %+v", recs[KindResize].Resize)
	}
}

// TestJSONLSchema locks the per-event line format. A diff here means
// SchemaVersion must be bumped and DESIGN.md updated.
func TestJSONLSchema(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	feedAll(j)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		`{"v":1,"ev":"poll","t":50000,"busy":3,"target":5}`,
		`{"v":1,"ev":"window","t":25000000,"seq":1,"samples":500,"min":1,"peak":4,"avg":2.5,"std":0.5,"median":2,"peak1s":4,"busy":3,"safeguard":false,"pred":2,"target":4,"clamp":"busy-floor"}`,
		`{"v":1,"ev":"safeguard","t":30000000,"busy":5,"target":5}`,
		`{"v":1,"ev":"qos-trip","t":1000000000,"frac":0.25,"waits":400,"pause_until":11000000000}`,
		`{"v":1,"ev":"qos-resume","t":11000000000}`,
		`{"v":1,"ev":"resize","t":2000000000,"from":10,"to":4,"mech":"cpugroups","latency":800000}`,
		`{"v":1,"ev":"churn","t":3000000000,"arrived":"memcached","departed":-1,"live":2,"alloc":20}`,
		`{"v":1,"ev":"batch","t":4000000000,"job":"terasort","phase":6,"phases":6,"finished":true}`,
		`{"v":1,"ev":"fault","t":5000000000,"kind":"hypercall-fail","dur":2000000,"delta":0}`,
		`{"v":1,"ev":"retry","t":5001000000,"target":4,"attempt":2,"backoff":2000000}`,
		`{"v":1,"ev":"degraded-enter","t":6000000000,"reason":"resize-failures","failures":3,"missed_polls":0}`,
		`{"v":1,"ev":"degraded-exit","t":8000000000,"clean_for":1000000000,"dur":2000000000}`,
		`{"v":1,"ev":"job-submit","t":9000000000,"job":"job-0","work":4000000000,"width":4,"deadline":19000000000}`,
		`{"v":1,"ev":"job-start","t":9001000000,"job":"job-0","server":2,"grant":3,"harvest":5,"attempt":1,"remaining":4000000000}`,
		`{"v":1,"ev":"job-evict","t":10000000000,"job":"job-0","server":2,"progress":1000000000,"evictions":1,"final":false}`,
		`{"v":1,"ev":"job-requeue","t":10000000000,"job":"job-0","evictions":1,"remaining":3000000000}`,
		`{"v":1,"ev":"job-complete","t":14000000000,"job":"job-0","server":1,"elapsed":5000000000,"evictions":1}`,
		`{"v":1,"ev":"job-slo-miss","t":20000000000,"job":"job-0","deadline":19000000000,"late":1000000000}`,
		`{"v":1,"ev":"predictor","t":20000000000,"name":"ensemble","classes":11}`,
		`{"v":1,"ev":"server-crash","t":21000000000,"server":2,"down":500000000}`,
		`{"v":1,"ev":"server-restart","t":21500000000,"server":2,"down":500000000}`,
		`{"v":1,"ev":"server-quarantine","t":22000000000,"server":2,"failures":3,"crash":true,"until":22200000000}`,
		`{"v":1,"ev":"server-probation","t":22200000000,"server":2,"until":22600000000}`,
		`{"v":1,"ev":"placement-retry","t":23000000000,"job":"job-0","server":1,"attempt":2,"backoff":4000000}`,
		`{"v":1,"ev":"admission-degraded","t":24000000000,"entered":true,"faults":9,"window":250000000}`,
		`{"v":1,"ev":"pool-open","t":25000000000,"pool":"acme","tier":"standard","reserved":4,"size":40000000000,"price":0.5,"forecast":8,"bound":12,"committed":4}`,
		`{"v":1,"ev":"pool-reject","t":25000000000,"pool":"big","tier":"premium","reserved":9,"forecast":8,"bound":6,"committed":0}`,
		`{"v":1,"ev":"pool-grant","t":26000000000,"job":"job-0","pool":"acme","tier":"standard","balance":30000000000}`,
		`{"v":1,"ev":"pool-account","t":27000000000,"pool":"acme","refill":2000000000,"drain":1000000000,"balance":31000000000}`,
		`{"v":1,"ev":"pool-evict","t":28000000000,"job":"job-0","pool":"acme","tier":"standard","reason":"capacity","evictions":4,"violation":true,"penalty":1}`,
		`{"v":1,"ev":"pool-settle","t":29000000000,"pool":"acme","consumed":9000000000,"revenue":4.5,"penalties":1,"evictions":4,"violations":1}`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("trace lines changed (schema drift — bump SchemaVersion):\ngot:\n%swant:\n%s", got, want)
	}
}

func TestJSONLOmitPolls(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf, JSONLOmitPolls())
	feedAll(j)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"ev":"poll"`) {
		t.Error("poll line present despite JSONLOmitPolls")
	}
	if n := strings.Count(buf.String(), "\n"); n != 30 {
		t.Errorf("got %d lines, want 30", n)
	}
}

func TestJSONLEscapesStrings(t *testing.T) {
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.OnChurnApplied(ChurnApplied{Arrived: "a\"b\\c\n", Departed: -1})
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	want := `"arrived":"a\"b\\c\u000a"`
	if !strings.Contains(buf.String(), want) {
		t.Errorf("escaping wrong: %s", buf.String())
	}
}

// errWriter fails after n bytes.
type errWriter struct{ n int }

func (w *errWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, errors.New("disk full")
	}
	w.n -= len(p)
	return len(p), nil
}

func TestJSONLSticksOnWriteError(t *testing.T) {
	j := NewJSONL(&errWriter{n: 4})
	for i := 0; i < 4096; i++ { // enough to overflow the bufio buffer
		j.OnQoSResume(QoSResume{At: sim.Time(i)})
	}
	if err := j.Flush(); err == nil {
		t.Fatal("Flush did not surface the write error")
	}
	if j.Err() == nil {
		t.Fatal("Err did not stick")
	}
	// Further events are dropped without panicking.
	j.OnQoSResume(QoSResume{})
}

func TestMetricsAggregates(t *testing.T) {
	m := NewMetrics()
	feedAll(m)
	if m.Polls != 1 || m.Windows != 1 || m.Safeguards != 1 ||
		m.QoSTrips != 1 || m.QoSResumes != 1 || m.Resizes != 1 ||
		m.Churns != 1 || m.BatchPhases != 1 {
		t.Fatalf("counters wrong: %+v", m)
	}
	if !m.BatchFinished {
		t.Error("BatchFinished not set")
	}
	if m.PoolOpens != 1 || m.PoolRejects != 1 || m.PoolGrants != 1 ||
		m.PoolAccounts != 1 || m.PoolEvictions != 1 || m.PoolViolations != 1 ||
		m.PoolSettles != 1 || m.PoolRevenue != 4.5 || m.PoolPenalties != 1 {
		t.Errorf("pool counters wrong: %+v", m)
	}
	if m.Grows != 1 || m.Shrinks != 0 {
		t.Errorf("resize 10->4 should count as one grow, got grows=%d shrinks=%d", m.Grows, m.Shrinks)
	}
	if m.ClampCounts[ClampBusyFloor] != 1 {
		t.Errorf("ClampCounts = %v", m.ClampCounts)
	}
	if m.WindowPeak.Mean() != 4 || m.WindowTarget.Mean() != 4 {
		t.Errorf("window stats: peak %v target %v", m.WindowPeak.Mean(), m.WindowTarget.Mean())
	}
	if m.ResizeLatency.Mean() != 800e3 {
		t.Errorf("resize latency mean %v", m.ResizeLatency.Mean())
	}
	if s := m.String(); !strings.Contains(s, "windows=1") || !strings.Contains(s, "busy-floor=1") {
		t.Errorf("String() = %q", s)
	}
}

func TestMultiFansOutInOrder(t *testing.T) {
	a, b := NewRing(8), NewRing(8)
	m := Multi(nil, a, nil, b)
	n := feedAll(m)
	if int(a.TotalEvents()) != n || int(b.TotalEvents()) != n {
		t.Fatalf("fan-out missed events: a=%d b=%d want %d", a.TotalEvents(), b.TotalEvents(), n)
	}
}

func TestMultiCollapses(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("empty Multi should be nil")
	}
	r := NewRing(1)
	if got := Multi(nil, r); got != Observer(r) {
		t.Error("single-observer Multi should unwrap")
	}
}

func TestNopObserverIsComplete(t *testing.T) {
	// Compile-time: NopObserver satisfies Observer; run it for coverage.
	feedAll(NopObserver{})
}

func TestKindAndClampStrings(t *testing.T) {
	if KindWindowEnd.String() != "window" || Kind(250).String() != "unknown" {
		t.Error("Kind strings wrong")
	}
	if ClampAllocCap.String() != "alloc-cap" || ClampReason(99).String() != "unknown" {
		t.Error("ClampReason strings wrong")
	}
}

// TestRingMatchesFullCopy: a Ring that copies only each record's member
// keeps what one copying whole records keeps, over seeded random streams
// of every kind that wrap rings of several sizes and cross a Reset.
func TestRingMatchesFullCopy(t *testing.T) {
	types := eventTypes(t)
	recT := reflect.TypeOf(Record{})
	for k := Kind(0); k < numKinds; k++ {
		if f := recT.Field(int(k) + 1); f.Type != types[k] {
			t.Fatalf("Record field %d is %s, want kind %v's %s", k+1, f.Name, k, types[k].Name())
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, capacity := range []int{1, 7, 64} {
		r := NewRing(capacity)
		var ref []Record
		for i := 0; i < 20*capacity+300; i++ {
			if i == 10*capacity+150 {
				r.Reset()
				ref = ref[:0]
			}
			var rec Record
			rec.Kind = Kind(rng.Intn(int(numKinds)))
			next := rng.Int63n(1 << 20)
			fill(reflect.ValueOf(&rec).Elem().Field(int(rec.Kind)+1), &next)
			if i%2 == 0 {
				r.Observe(&rec)
			} else {
				Dispatch(r, &rec) // through the Adapter's scratch record
			}
			if ref = append(ref, rec); len(ref) > capacity {
				ref = ref[1:]
			}
			if got := r.Records(); !reflect.DeepEqual(got, ref) {
				t.Fatalf("capacity %d, event %d (%v): ring holds %d records that differ from the full-copy reference's %d",
					capacity, i, rec.Kind, len(got), len(ref))
			}
		}
	}
}

// TestMultiSplicesNestedMultis: a Multi passed to Multi contributes its
// observers, in order, instead of a second fan-out level.
func TestMultiSplicesNestedMultis(t *testing.T) {
	var order []string
	tag := func(name string) Observer {
		c := &tagSink{name: name, order: &order}
		c.Sink = c
		return c
	}
	m := Multi(Multi(tag("a"), tag("b")), tag("c"), Multi(tag("d"), nil, Multi(tag("e"), tag("f"))))
	if n := len(m.(*multi).sinks); n != 6 {
		t.Fatalf("%d sinks, want the 6 leaves", n)
	}
	m.OnQoSResume(QoSResume{})
	if got := strings.Join(order, ""); got != "abcdef" {
		t.Fatalf("delivery order %q, want abcdef", got)
	}
}

type tagSink struct {
	Adapter
	name  string
	order *[]string
}

func (s *tagSink) Observe(*Record) { *s.order = append(*s.order, s.name) }
