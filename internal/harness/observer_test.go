package harness

import (
	"bytes"
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/check"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// traceScenario is the fixed scenario behind the golden trace: short, a
// coarse poll so the trace stays small, with churn for event coverage.
func traceScenario() Scenario {
	arrival := apps.Memcached(20000)
	return Scenario{
		Name:              "golden-trace",
		Primaries:         []apps.PrimarySpec{apps.Memcached(40000)},
		Duration:          200 * sim.Millisecond,
		Warmup:            100 * sim.Millisecond,
		PollInterval:      5 * sim.Millisecond,
		Seed:              11,
		LongTermSafeguard: true,
		Churn: []ChurnEvent{
			{At: 150 * sim.Millisecond, Depart: -1, Arrive: &arrival},
			{At: 250 * sim.Millisecond, Depart: 1},
		},
	}
}

// runTrace executes s with a JSONL sink and returns the trace bytes.
func runTrace(t *testing.T, s Scenario, opts ...obs.JSONLOption) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf, opts...)
	s.Observer = sink
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestTraceGolden locks the end-to-end trace of a fixed scenario: event
// order, timestamps, and every field. It fails on any schema or behaviour
// drift; run with -update to regenerate after an intentional change (and
// bump obs.SchemaVersion if line formats changed).
func TestTraceGolden(t *testing.T) {
	got := runTrace(t, traceScenario())
	golden := filepath.Join("testdata", "golden-trace.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace drifted from %s (re-run with -update if intentional):\ngot %d bytes, want %d",
			golden, len(got), len(want))
		// Show the first diverging line for debugging.
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Errorf("first diff at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
				break
			}
		}
	}
}

// TestTraceByteIdenticalAcrossParallelism is the trace-level counterpart
// of TestRunAllDeterminism: per-scenario JSONL traces collected through a
// parallel RunAll are byte-identical to serial Run traces.
func TestTraceByteIdenticalAcrossParallelism(t *testing.T) {
	scenarios := representativeScenarios()

	serial := make([][]byte, len(scenarios))
	for i, s := range scenarios {
		serial[i] = runTrace(t, s, obs.JSONLOmitPolls())
	}

	bufs := make([]bytes.Buffer, len(scenarios))
	withObs := make([]Scenario, len(scenarios))
	for i, s := range scenarios {
		s.Observer = obs.NewJSONL(&bufs[i], obs.JSONLOmitPolls())
		withObs[i] = s
	}
	if _, err := RunAll(withObs, 4); err != nil {
		t.Fatal(err)
	}
	for i, s := range scenarios {
		sink := withObs[i].Observer.(*obs.JSONL)
		if err := sink.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(serial[i], bufs[i].Bytes()) {
			t.Errorf("%s: parallel trace differs from serial (%d vs %d bytes)",
				s.Name, len(bufs[i].Bytes()), len(serial[i]))
		}
		if len(serial[i]) == 0 {
			t.Errorf("%s: empty trace", s.Name)
		}
	}
}

// TestMetricsSinkMatchesResult checks that the aggregating sink derives
// the same counters the Result reports from its own event stream.
func TestMetricsSinkMatchesResult(t *testing.T) {
	for _, s := range representativeScenarios() {
		m := obs.NewMetrics()
		s.Observer = m
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if m.Windows != res.Windows {
			t.Errorf("%s: metrics windows %d, result %d", s.Name, m.Windows, res.Windows)
		}
		if m.Safeguards != res.Safeguards {
			t.Errorf("%s: metrics safeguards %d, result %d", s.Name, m.Safeguards, res.Safeguards)
		}
		if m.QoSTrips != res.QoSTrips {
			t.Errorf("%s: metrics qos trips %d, result %d", s.Name, m.QoSTrips, res.QoSTrips)
		}
		if m.Resizes != res.Resizes {
			t.Errorf("%s: metrics resizes %d, result %d", s.Name, m.Resizes, res.Resizes)
		}
		if s.Batch == BatchTeraSort && (!m.BatchFinished || m.BatchPhases == 0) {
			t.Errorf("%s: batch progress not observed: phases=%d finished=%v",
				s.Name, m.BatchPhases, m.BatchFinished)
		}
		if len(s.Churn) > 0 && int(m.Churns) != len(s.Churn) {
			t.Errorf("%s: churn events %d, want %d", s.Name, m.Churns, len(s.Churn))
		}
	}
}

// TestScenarioOptionsDoNotMutateCaller: Run fills in defaults and chains
// the checker on its own copy, so the caller's Scenario is unchanged.
func TestScenarioOptionsDoNotMutateCaller(t *testing.T) {
	s := Scenario{
		Name: "opts", Primaries: []apps.PrimarySpec{apps.IndexServe(200)},
		Duration: sim.Second, Warmup: 500 * sim.Millisecond,
		Checker: check.New(),
	}
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
	if s.Observer != nil || s.Controller != nil || s.Seed != 0 || s.Window != 0 || s.LongTermSafeguard {
		t.Fatalf("caller's scenario mutated: %+v", s)
	}
}

// TestScenarioValidationErrors is the table behind the structured-error
// contract: each malformed scenario yields a *ScenarioError wrapping the
// right sentinel.
func TestScenarioValidationErrors(t *testing.T) {
	one := []apps.PrimarySpec{apps.IndexServe(200)}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want error
	}{
		{"no-primaries", func(s *Scenario) { s.Primaries = nil }, ErrNoPrimaries},
		{"zero-duration", func(s *Scenario) { s.Duration = 0 }, ErrBadDuration},
		{"negative-duration", func(s *Scenario) { s.Duration = -sim.Second }, ErrBadDuration},
		{"negative-warmup", func(s *Scenario) { s.Warmup = -sim.Second }, ErrBadDuration},
		{"warmup-plus-duration-overflows", func(s *Scenario) {
			s.Warmup = 2 * sim.Second
			s.Duration = math.MaxInt64 - sim.Second
		}, ErrBadDuration},
		{"negative-window", func(s *Scenario) { s.Window = -sim.Millisecond }, ErrBadWindow},
		{"window-below-poll", func(s *Scenario) {
			s.Window = 10 * sim.Microsecond
			s.PollInterval = 50 * sim.Microsecond
		}, ErrBadWindow},
		{"negative-qos-wait-threshold", func(s *Scenario) { s.QoSWaitThreshold = -sim.Millisecond }, ErrBadQoS},
		{"negative-qos-violation-frac", func(s *Scenario) { s.QoSViolationFrac = -3 }, ErrBadQoS},
		{"nan-qos-violation-frac", func(s *Scenario) { s.QoSViolationFrac = math.NaN() }, ErrBadQoS},
		{"unknown-batch", func(s *Scenario) { s.Batch = BatchKind(99) }, ErrUnknownBatch},
		{"finite-batch-without-work", func(s *Scenario) { s.Batch = BatchFinite }, ErrUnknownBatch},
		{"churn-depart-below-minus-one", func(s *Scenario) {
			s.Churn = []ChurnEvent{{At: sim.Second, Depart: -2}}
		}, ErrBadChurn},
		{"churn-depart-out-of-range", func(s *Scenario) {
			s.Churn = []ChurnEvent{{At: sim.Second, Depart: 5}}
		}, ErrBadChurn},
		{"churn-leaves-no-primaries", func(s *Scenario) {
			s.Churn = []ChurnEvent{{At: sim.Second, Depart: 0}}
		}, ErrBadChurn},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := Scenario{Name: c.name, Primaries: one, Duration: sim.Second, Seed: 1}
			c.mut(&s)
			_, err := Run(s)
			if err == nil {
				t.Fatal("Run accepted the malformed scenario")
			}
			if !errors.Is(err, c.want) {
				t.Fatalf("error %v does not wrap %v", err, c.want)
			}
			var se *ScenarioError
			if !errors.As(err, &se) {
				t.Fatalf("error %T is not a *ScenarioError", err)
			}
			if se.Scenario != c.name {
				t.Fatalf("ScenarioError names %q, want %q", se.Scenario, c.name)
			}
		})
	}

	// A well-formed scenario must not be rejected.
	if _, err := Run(Scenario{
		Name: "ok", Primaries: one,
		Duration: 500 * sim.Millisecond, Warmup: 100 * sim.Millisecond, Seed: 1, LongTermSafeguard: true,
	}); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}

	// Zero warmup is no warm-up: the run measures from t = 0, so every
	// completed request is in the latency histogram.
	res, err := Run(Scenario{Name: "no-warmup", Primaries: one, Duration: 500 * sim.Millisecond, Seed: 1})
	if err != nil {
		t.Fatalf("zero-warmup scenario rejected: %v", err)
	}
	if p := res.Primaries[0]; p.Completed == 0 || p.Latency.Count != p.Completed {
		t.Fatalf("zero warmup measured %d of %d completed requests, want all", p.Latency.Count, p.Completed)
	}
	if res.SimTime != 500*sim.Millisecond {
		t.Fatalf("zero warmup ran %v, want the 500ms Duration alone", res.SimTime)
	}
}

// TestNilControllerLeavesLongTermSafeguardOff: a nil Controller runs the
// default SmartHarvest and nothing else; the long-term guard stays as the
// caller set it. With it off, an IndexServe run takes no 10 s lock-out.
func TestNilControllerLeavesLongTermSafeguardOff(t *testing.T) {
	res, err := Run(Scenario{
		Name: "nil-controller", Primaries: []apps.PrimarySpec{apps.IndexServe(500)},
		Duration: 10 * sim.Second, Warmup: 2 * sim.Second, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy != "smartharvest" || res.QoSTrips != 0 {
		t.Fatalf("policy %s with %d QoS trips, want smartharvest with none", res.Policy, res.QoSTrips)
	}
}

// TestBatchKindRoundTrip covers the textual enum contract.
func TestBatchKindRoundTrip(t *testing.T) {
	for _, k := range []BatchKind{BatchCPUBully, BatchHDInsight, BatchTeraSort, BatchNone} {
		got, err := ParseBatchKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseBatchKind(%q) = %v, %v", k.String(), got, err)
		}
		text, err := k.MarshalText()
		if err != nil || string(text) != k.String() {
			t.Errorf("MarshalText(%v) = %q, %v", k, text, err)
		}
		var back BatchKind
		if err := back.UnmarshalText(text); err != nil || back != k {
			t.Errorf("UnmarshalText(%q) = %v, %v", text, back, err)
		}
	}
	if _, err := ParseBatchKind("nope"); err == nil {
		t.Error("ParseBatchKind accepted junk")
	}
	if _, err := BatchKind(99).MarshalText(); err == nil {
		t.Error("MarshalText accepted an invalid kind")
	}
}
