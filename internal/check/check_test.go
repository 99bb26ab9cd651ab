package check_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"smartharvest/internal/check"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// testConfig mirrors the harness's standard single-primary setup: one
// 10-core primary VM plus a 1-core elastic minimum.
func testConfig() check.Config {
	return check.Config{
		TotalCores:        11,
		PrimaryAlloc:      10,
		PrimaryVMCores:    10,
		ElasticMin:        1,
		HarvestPause:      10 * sim.Second,
		QoSViolationFrac:  0.01,
		LongTermSafeguard: true,
	}
}

func bound(t *testing.T, cfg check.Config) *check.Checker {
	t.Helper()
	c := check.New()
	if err := c.Bind(cfg); err != nil {
		t.Fatalf("Bind: %v", err)
	}
	return c
}

// window builds a consistent WindowEnd: flat busy samples, the clamp rule
// applied to pred exactly as the agent does it.
func window(at sim.Time, seq uint64, busy, pred, alloc int) obs.WindowEnd {
	target, clamp := pred, obs.ClampNone
	if m := busy + 1; target < m {
		target, clamp = m, obs.ClampBusyFloor
	}
	if target > alloc {
		target, clamp = alloc, obs.ClampAllocCap
	}
	return obs.WindowEnd{
		At: at, Seq: seq, Samples: 10,
		Features: obs.Features{
			Min: busy, Max: busy,
			Avg: float64(busy), Std: 0, Median: float64(busy),
		},
		Peak1s: busy, Busy: busy,
		Prediction: pred, Target: target, Clamp: clamp,
	}
}

// wantViolation asserts the report contains a violation of the given
// invariant.
func wantViolation(t *testing.T, rep *check.Report, invariant string) {
	t.Helper()
	if rep.OK() {
		t.Fatalf("report OK, want a %s violation", invariant)
	}
	for _, v := range rep.Violations {
		if v.Invariant == invariant {
			return
		}
	}
	t.Fatalf("no %s violation in report:\n%s", invariant, rep)
}

func wantClean(t *testing.T, rep *check.Report) {
	t.Helper()
	if !rep.OK() {
		t.Fatalf("unexpected violations:\n%s", rep)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("Err() = %v on an OK report", err)
	}
}

func TestBindValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*check.Config)
	}{
		{"zero total", func(c *check.Config) { c.TotalCores = 0 }},
		{"alloc exceeds total", func(c *check.Config) { c.PrimaryAlloc = 11 }},
		{"zero alloc", func(c *check.Config) { c.PrimaryAlloc = 0 }},
		{"negative elastic min", func(c *check.Config) { c.ElasticMin = -1 }},
		{"negative pause", func(c *check.Config) { c.HarvestPause = -1 }},
		{"frac above one", func(c *check.Config) { c.QoSViolationFrac = 1.5 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mut(&cfg)
			if err := check.New().Bind(cfg); err == nil {
				t.Fatalf("Bind accepted bad config %+v", cfg)
			}
		})
	}
}

func TestBindTwiceRejected(t *testing.T) {
	c := bound(t, testConfig())
	if err := c.Bind(testConfig()); err == nil {
		t.Fatal("second Bind accepted; a Checker must verify exactly one run")
	}
}

func TestEventBeforeBindFlagged(t *testing.T) {
	c := check.New()
	c.OnWindowEnd(window(0, 1, 2, 5, 10))
	wantViolation(t, c.Finish(), check.InvUsage)
}

func TestCleanStream(t *testing.T) {
	c := bound(t, testConfig())
	c.OnPollSample(obs.PollSample{At: 1, Busy: 2, Target: 10})
	c.OnWindowEnd(window(25*sim.Millisecond, 1, 2, 5, 10))
	c.OnResize(obs.Resize{At: 25 * sim.Millisecond, FromCores: 10, ToCores: 5, Latency: 1})
	c.OnWindowEnd(window(50*sim.Millisecond, 2, 3, 4, 10))
	c.OnResize(obs.Resize{At: 50 * sim.Millisecond, FromCores: 5, ToCores: 4, Latency: 1})
	rep := c.Finish()
	wantClean(t, rep)
	if rep.Events != 5 {
		t.Fatalf("Events = %d, want 5", rep.Events)
	}
}

func TestTimeMonotonic(t *testing.T) {
	c := bound(t, testConfig())
	c.OnWindowEnd(window(50*sim.Millisecond, 1, 2, 5, 10))
	c.OnWindowEnd(window(25*sim.Millisecond, 2, 2, 5, 10))
	wantViolation(t, c.Finish(), check.InvTimeMonotonic)
}

func TestResizeChainContinuity(t *testing.T) {
	c := bound(t, testConfig())
	// The run starts at the full allocation (10); a resize claiming to
	// start from 9 broke the chain.
	c.OnResize(obs.Resize{At: 1, FromCores: 9, ToCores: 5})
	wantViolation(t, c.Finish(), check.InvResizeChain)
}

func TestResizeNoOpRejected(t *testing.T) {
	c := bound(t, testConfig())
	c.OnResize(obs.Resize{At: 1, FromCores: 10, ToCores: 10})
	wantViolation(t, c.Finish(), check.InvResizeChain)
}

func TestCoreConservation(t *testing.T) {
	t.Run("above alloc", func(t *testing.T) {
		c := bound(t, testConfig())
		// Growing past the primary allocation would steal the ElasticVM's
		// guaranteed minimum core.
		c.OnResize(obs.Resize{At: 1, FromCores: 10, ToCores: 11})
		wantViolation(t, c.Finish(), check.InvConservation)
	})
	t.Run("below one", func(t *testing.T) {
		c := bound(t, testConfig())
		c.OnResize(obs.Resize{At: 1, FromCores: 10, ToCores: 0})
		wantViolation(t, c.Finish(), check.InvConservation)
	})
}

func TestClampConsistency(t *testing.T) {
	t.Run("busy floor ignored", func(t *testing.T) {
		c := bound(t, testConfig())
		w := window(1, 1, 6, 3, 10)
		w.Target, w.Clamp = 3, obs.ClampNone // agent must apply busy+1 = 7
		c.OnWindowEnd(w)
		wantViolation(t, c.Finish(), check.InvClamp)
	})
	t.Run("wrong reason", func(t *testing.T) {
		c := bound(t, testConfig())
		w := window(1, 1, 2, 5, 10)
		w.Clamp = obs.ClampBusyFloor // target 5 is the raw prediction
		c.OnWindowEnd(w)
		wantViolation(t, c.Finish(), check.InvClamp)
	})
	t.Run("prediction out of range", func(t *testing.T) {
		c := bound(t, testConfig())
		w := window(1, 1, 2, 5, 10)
		w.Prediction = 12
		c.OnWindowEnd(w)
		wantViolation(t, c.Finish(), check.InvClamp)
	})
}

func TestWindowSequence(t *testing.T) {
	c := bound(t, testConfig())
	c.OnWindowEnd(window(1, 1, 2, 5, 10))
	c.OnWindowEnd(window(2, 3, 2, 5, 10)) // seq 2 skipped
	wantViolation(t, c.Finish(), check.InvWindowSeq)
}

func TestWindowShape(t *testing.T) {
	t.Run("no samples", func(t *testing.T) {
		c := bound(t, testConfig())
		w := window(1, 1, 2, 5, 10)
		w.Samples = 0
		c.OnWindowEnd(w)
		wantViolation(t, c.Finish(), check.InvWindowShape)
	})
	t.Run("peak1s below window max", func(t *testing.T) {
		c := bound(t, testConfig())
		w := window(1, 1, 4, 5, 10)
		w.Peak1s = 3 // the trailing-second peak includes this window
		c.OnWindowEnd(w)
		wantViolation(t, c.Finish(), check.InvWindowShape)
	})
	t.Run("inconsistent features", func(t *testing.T) {
		c := bound(t, testConfig())
		w := window(1, 1, 4, 5, 10)
		w.Features.Min = 6 // min above max
		c.OnWindowEnd(w)
		wantViolation(t, c.Finish(), check.InvWindowShape)
	})
}

func TestSafeguardPairing(t *testing.T) {
	t.Run("legal trip", func(t *testing.T) {
		c := bound(t, testConfig())
		c.OnSafeguardTrip(obs.SafeguardTrip{At: 1, Busy: 5, Target: 5})
		w := window(1, 1, 5, 3, 10)
		w.Safeguard = true
		w.Target, w.Clamp = 6, obs.ClampBusyFloor
		c.OnWindowEnd(w)
		wantClean(t, c.Finish())
	})
	t.Run("trip without window", func(t *testing.T) {
		c := bound(t, testConfig())
		c.OnSafeguardTrip(obs.SafeguardTrip{At: 1, Busy: 5, Target: 5})
		c.OnResize(obs.Resize{At: 1, FromCores: 10, ToCores: 6})
		wantViolation(t, c.Finish(), check.InvSafeguard)
	})
	t.Run("trip as final event", func(t *testing.T) {
		c := bound(t, testConfig())
		c.OnSafeguardTrip(obs.SafeguardTrip{At: 1, Busy: 5, Target: 5})
		wantViolation(t, c.Finish(), check.InvSafeguard)
	})
	t.Run("window without trip", func(t *testing.T) {
		c := bound(t, testConfig())
		w := window(1, 1, 5, 3, 10)
		w.Safeguard = true
		w.Target, w.Clamp = 6, obs.ClampBusyFloor
		c.OnWindowEnd(w)
		wantViolation(t, c.Finish(), check.InvSafeguard)
	})
	t.Run("trip from non-harvesting state", func(t *testing.T) {
		c := bound(t, testConfig())
		// target == alloc: nothing was harvested, the safeguard cannot fire.
		c.OnSafeguardTrip(obs.SafeguardTrip{At: 1, Busy: 10, Target: 10})
		w := window(1, 1, 10, 3, 10)
		w.Safeguard = true
		w.Target, w.Clamp = 10, obs.ClampAllocCap
		c.OnWindowEnd(w)
		wantViolation(t, c.Finish(), check.InvSafeguard)
	})
	t.Run("trip below target", func(t *testing.T) {
		c := bound(t, testConfig())
		// busy < target: the assignment was not exhausted.
		c.OnSafeguardTrip(obs.SafeguardTrip{At: 1, Busy: 2, Target: 5})
		w := window(1, 1, 2, 3, 10)
		w.Safeguard = true
		c.OnWindowEnd(w)
		wantViolation(t, c.Finish(), check.InvSafeguard)
	})
}

func TestQoSStateMachine(t *testing.T) {
	trip := func(at sim.Time) obs.QoSTrip {
		return obs.QoSTrip{At: at, Frac: 0.05, Waits: 100, PauseUntil: at + 10*sim.Second}
	}
	t.Run("legal pause and resume", func(t *testing.T) {
		c := bound(t, testConfig())
		c.OnResize(obs.Resize{At: 1, FromCores: 10, ToCores: 4})
		c.OnQoSTrip(trip(sim.Second))
		// The agent restores the full allocation when tripping.
		c.OnResize(obs.Resize{At: sim.Second, FromCores: 4, ToCores: 10})
		c.OnQoSResume(obs.QoSResume{At: 11*sim.Second + 5})
		c.OnWindowEnd(window(11*sim.Second+6, 1, 2, 5, 10))
		wantClean(t, c.Finish())
	})
	t.Run("wrong pause duration", func(t *testing.T) {
		c := bound(t, testConfig())
		tr := trip(sim.Second)
		tr.PauseUntil -= sim.Millisecond // paper: the pause is exactly 10 s
		c.OnQoSTrip(tr)
		wantViolation(t, c.Finish(), check.InvPauseDuration)
	})
	t.Run("trip below threshold", func(t *testing.T) {
		c := bound(t, testConfig())
		tr := trip(sim.Second)
		tr.Frac = 0.001 // under QoSViolationFrac = 0.01
		c.OnQoSTrip(tr)
		wantViolation(t, c.Finish(), check.InvQoS)
	})
	t.Run("trip while paused", func(t *testing.T) {
		c := bound(t, testConfig())
		c.OnQoSTrip(trip(sim.Second))
		c.OnQoSTrip(trip(2 * sim.Second))
		wantViolation(t, c.Finish(), check.InvQoS)
	})
	t.Run("trip with guard disabled", func(t *testing.T) {
		cfg := testConfig()
		cfg.LongTermSafeguard = false
		c := bound(t, cfg)
		c.OnQoSTrip(trip(sim.Second))
		wantViolation(t, c.Finish(), check.InvQoS)
	})
	t.Run("early resume", func(t *testing.T) {
		c := bound(t, testConfig())
		c.OnQoSTrip(trip(sim.Second))
		c.OnQoSResume(obs.QoSResume{At: 5 * sim.Second})
		wantViolation(t, c.Finish(), check.InvPauseDuration)
	})
	t.Run("resume without trip", func(t *testing.T) {
		c := bound(t, testConfig())
		c.OnQoSResume(obs.QoSResume{At: sim.Second})
		wantViolation(t, c.Finish(), check.InvQoS)
	})
}

func TestPausedHarvestForbidden(t *testing.T) {
	pause := func(c *check.Checker) {
		c.OnQoSTrip(obs.QoSTrip{At: sim.Second, Frac: 0.05, Waits: 9, PauseUntil: 11 * sim.Second})
	}
	t.Run("harvest resize while paused", func(t *testing.T) {
		c := bound(t, testConfig())
		pause(c)
		c.OnResize(obs.Resize{At: 2 * sim.Second, FromCores: 10, ToCores: 6})
		c.OnWindowEnd(obs.WindowEnd{
			At: 2*sim.Second + 1, Seq: 1, Samples: 10, Peak1s: 2, Busy: 2,
			Target: 10, Clamp: obs.ClampPaused,
		})
		wantViolation(t, c.Finish(), check.InvPausedHarvest)
	})
	t.Run("harvest resize as final event", func(t *testing.T) {
		c := bound(t, testConfig())
		pause(c)
		c.OnResize(obs.Resize{At: 2 * sim.Second, FromCores: 10, ToCores: 6})
		// The deferred judgment must commit at Finish even with no
		// following event.
		wantViolation(t, c.Finish(), check.InvPausedHarvest)
	})
	t.Run("window below alloc while paused", func(t *testing.T) {
		c := bound(t, testConfig())
		pause(c)
		c.OnWindowEnd(window(2*sim.Second, 1, 2, 5, 10)) // target 5, not pinned
		wantViolation(t, c.Finish(), check.InvPausedHarvest)
	})
	t.Run("paused clamp while not paused", func(t *testing.T) {
		c := bound(t, testConfig())
		w := window(1, 1, 2, 5, 10)
		w.Target, w.Clamp = 10, obs.ClampPaused
		c.OnWindowEnd(w)
		wantViolation(t, c.Finish(), check.InvClamp)
	})
	t.Run("poll below alloc while paused", func(t *testing.T) {
		c := bound(t, testConfig())
		pause(c)
		c.OnPollSample(obs.PollSample{At: 2 * sim.Second, Busy: 1, Target: 6})
		wantViolation(t, c.Finish(), check.InvPausedHarvest)
	})
	t.Run("churn shrink while paused is legal", func(t *testing.T) {
		// A departure shrinks the allocation even during a pause; the
		// shrink resize precedes its ChurnApplied at the same instant.
		cfg := testConfig()
		cfg.TotalCores = 21
		cfg.PrimaryAlloc = 20
		c := bound(t, cfg)
		c.OnQoSTrip(obs.QoSTrip{At: sim.Second, Frac: 0.05, Waits: 9, PauseUntil: 11 * sim.Second})
		c.OnResize(obs.Resize{At: 2 * sim.Second, FromCores: 20, ToCores: 10})
		c.OnChurnApplied(obs.ChurnApplied{
			At: 2 * sim.Second, Departed: 1, LivePrimaries: 1, PrimaryAlloc: 10,
		})
		c.OnPollSample(obs.PollSample{At: 2*sim.Second + 1, Busy: 1, Target: 10})
		wantClean(t, c.Finish())
	})
}

func TestChurnAccounting(t *testing.T) {
	t.Run("alloc mismatch", func(t *testing.T) {
		cfg := testConfig()
		cfg.TotalCores = 21
		cfg.PrimaryAlloc = 20
		c := bound(t, cfg)
		c.OnChurnApplied(obs.ChurnApplied{At: 1, Departed: 1, LivePrimaries: 1, PrimaryAlloc: 15})
		wantViolation(t, c.Finish(), check.InvChurn)
	})
	t.Run("no primaries left", func(t *testing.T) {
		c := bound(t, testConfig())
		c.OnChurnApplied(obs.ChurnApplied{At: 1, Departed: 0, LivePrimaries: 0, PrimaryAlloc: 0})
		wantViolation(t, c.Finish(), check.InvChurn)
	})
	t.Run("primary group exceeds new alloc", func(t *testing.T) {
		cfg := testConfig()
		cfg.TotalCores = 21
		cfg.PrimaryAlloc = 20
		c := bound(t, cfg)
		// Departure halves the allocation but no shrink resize preceded:
		// the primary group still holds 20 cores.
		c.OnChurnApplied(obs.ChurnApplied{At: 1, Departed: 1, LivePrimaries: 1, PrimaryAlloc: 10})
		wantViolation(t, c.Finish(), check.InvChurn)
	})
}

func TestBatchProgress(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		c := bound(t, testConfig())
		c.OnBatchProgress(obs.BatchProgress{At: 1, Job: "j", Phase: 1, Phases: 2})
		c.OnBatchProgress(obs.BatchProgress{At: 2, Job: "j", Phase: 2, Phases: 2, Finished: true})
		wantClean(t, c.Finish())
	})
	t.Run("phase regression", func(t *testing.T) {
		c := bound(t, testConfig())
		c.OnBatchProgress(obs.BatchProgress{At: 1, Job: "j", Phase: 2, Phases: 3})
		c.OnBatchProgress(obs.BatchProgress{At: 2, Job: "j", Phase: 1, Phases: 3})
		wantViolation(t, c.Finish(), check.InvBatch)
	})
	t.Run("finished flag wrong", func(t *testing.T) {
		c := bound(t, testConfig())
		c.OnBatchProgress(obs.BatchProgress{At: 1, Job: "j", Phase: 1, Phases: 2, Finished: true})
		wantViolation(t, c.Finish(), check.InvBatch)
	})
	t.Run("finished twice", func(t *testing.T) {
		c := bound(t, testConfig())
		c.OnBatchProgress(obs.BatchProgress{At: 1, Job: "j", Phase: 2, Phases: 2, Finished: true})
		c.OnBatchProgress(obs.BatchProgress{At: 2, Job: "j", Phase: 2, Phases: 2, Finished: true})
		wantViolation(t, c.Finish(), check.InvBatch)
	})
}

func TestFlagFoldsExternalViolations(t *testing.T) {
	c := bound(t, testConfig())
	c.Flag(check.InvMachineState, 5, "core conservation violated in the machine")
	rep := c.Finish()
	wantViolation(t, rep, check.InvMachineState)
	if !strings.Contains(rep.String(), "core conservation violated") {
		t.Fatalf("report does not carry the flagged detail:\n%s", rep)
	}
	// No event gave rise to the violation, so none is named (the zero
	// Record's Kind used to render it as a "poll" event).
	v := rep.First()
	if want := "[machine-state] t=5ns: core conservation violated in the machine"; v.HasEvent || v.String() != want {
		t.Fatalf("flagged violation renders as %q (HasEvent=%t), want %q", v, v.HasEvent, want)
	}
}

// TestReportContextTimestamps: the context lines of a report carry each
// event's own timestamp, whatever its kind (13 of the 31 kinds used to
// print t=0s).
func TestReportContextTimestamps(t *testing.T) {
	ring := obs.NewRing(check.ContextSize)
	iface := reflect.TypeOf((*obs.Observer)(nil)).Elem()
	for i := 0; i < iface.NumMethod(); i++ {
		m := iface.Method(i)
		e := reflect.New(m.Type.In(0)).Elem()
		e.FieldByName("At").SetInt(int64(i+1) * int64(sim.Second))
		reflect.ValueOf(ring).MethodByName(m.Name).Call([]reflect.Value{e})
	}
	rep := check.Report{
		Events:     ring.TotalEvents(),
		Violations: []check.Violation{{Invariant: check.InvMachineState, Detail: "synthetic"}},
		Context:    ring.Records(),
	}
	out := rep.String()
	if len(rep.Context) != iface.NumMethod() || strings.Contains(out, " t=0s ") {
		t.Fatalf("context of %d events has a zero timestamp:\n%s", len(rep.Context), out)
	}
	for i, rec := range rep.Context {
		if want := fmt.Sprintf("  t=%ds %s\n", i+1, rec.Kind); !strings.Contains(out, want) {
			t.Errorf("report lacks the context line %q:\n%s", want, out)
		}
	}
}

func TestReportContextCapture(t *testing.T) {
	c := bound(t, testConfig())
	for i := 0; i < 5; i++ {
		c.OnWindowEnd(window(sim.Time(i+1)*sim.Millisecond, uint64(i+1), 2, 5, 10))
	}
	// The offending event: a time regression.
	c.OnWindowEnd(window(1, 6, 2, 5, 10))
	rep := c.Finish()
	wantViolation(t, rep, check.InvTimeMonotonic)
	if len(rep.Context) != 6 {
		t.Fatalf("context holds %d events, want 6 (5 clean + offender)", len(rep.Context))
	}
	last := rep.Context[len(rep.Context)-1]
	if last.Kind != obs.KindWindowEnd || last.WindowEnd.Seq != 6 {
		t.Fatalf("context does not end with the offending event: %+v", last)
	}
	if first := rep.First(); first.Invariant != check.InvTimeMonotonic || !first.HasEvent {
		t.Fatalf("First() = %+v", first)
	}
}

func TestViolationCapAndDropped(t *testing.T) {
	c := bound(t, testConfig())
	for i := 0; i < 150; i++ {
		// Every window claims seq 5: one violation each.
		c.OnWindowEnd(window(sim.Time(i+1), 5, 2, 5, 10))
	}
	rep := c.Finish()
	if len(rep.Violations) != 100 {
		t.Fatalf("kept %d violations, want the 100 cap", len(rep.Violations))
	}
	if rep.Dropped != 50 {
		t.Fatalf("Dropped = %d, want 50", rep.Dropped)
	}
	if !strings.Contains(rep.String(), "50 more (dropped)") {
		t.Fatalf("report does not mention dropped violations:\n%s", rep)
	}
}

func TestFinishIdempotent(t *testing.T) {
	c := bound(t, testConfig())
	c.OnWindowEnd(window(1, 1, 2, 5, 10))
	r1 := c.Finish()
	r2 := c.Report()
	if r1 != r2 {
		t.Fatal("Finish and Report returned different report instances")
	}
}
