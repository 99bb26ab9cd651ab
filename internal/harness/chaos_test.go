package harness

import (
	"bytes"
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/check"
	"smartharvest/internal/faults"
	"smartharvest/internal/market"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// chaosPlan is a moderate all-surfaces fault mix for the tests below.
func chaosPlan() faults.Plan {
	return faults.Plan{
		HypercallFailProb:  0.2,
		HypercallDelayProb: 0.1,
		PollDropProb:       0.002,
		PollStaleProb:      0.002,
		PollNoiseProb:      0.01,
		StallProb:          0.01,
		CrashProb:          0.005,
	}
}

func chaosTrace(t *testing.T, s Scenario) ([]byte, *Result) {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf, obs.JSONLOmitPolls())
	s.Observer = sink
	res, err := Run(s, WithChecker(check.New()))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), res
}

// TestZeroProbabilityPlanByteIdentical is the "faults off means OFF"
// regression: a plan with durations set but every probability zero must
// not construct an injector, draw from the scenario RNG, or perturb the
// run in any way — its trace is byte-identical to a run with no plan.
func TestZeroProbabilityPlanByteIdentical(t *testing.T) {
	base := short("nofaults", apps.Memcached(40000))
	base.Duration = 3 * sim.Second
	plain, plainRes := chaosTrace(t, base)

	zeroed := base
	zeroed.Faults = faults.Plan{
		HypercallDelayMean: 2 * sim.Millisecond,
		HypercallDelayP99:  10 * sim.Millisecond,
		StallDur:           60 * sim.Millisecond,
		RestartDur:         250 * sim.Millisecond,
		LoseModel:          true,
	}
	if zeroed.Faults.Enabled() {
		t.Fatal("duration-only plan reports enabled")
	}
	withPlan, planRes := chaosTrace(t, zeroed)

	if !bytes.Equal(plain, withPlan) {
		t.Fatalf("zero-probability plan changed the trace (%d vs %d bytes)",
			len(plain), len(withPlan))
	}
	if len(plain) == 0 {
		t.Fatal("empty trace")
	}
	if plainRes.P99(0) != planRes.P99(0) || plainRes.Resizes != planRes.Resizes {
		t.Fatal("zero-probability plan changed results")
	}
	if planRes.FaultsInjected != 0 {
		t.Fatalf("zero-probability plan injected %d faults", planRes.FaultsInjected)
	}
}

// TestFleetPlanRejectedOnSingleServer: fleet-level fault keys (server
// crashes, grant drops, stale reads) have no injection surface in a
// single-server harness scenario; accepting them would silently inject
// nothing, so Run must refuse the scenario outright.
func TestFleetPlanRejectedOnSingleServer(t *testing.T) {
	plans := []faults.Plan{
		{ServerCrashProb: 0.01},
		{GrantDropProb: 0.2},
		{ReadStaleProb: 0.1, ReconcileLossProb: 0.05},
		{HypercallFailProb: 0.1, GrantDelayProb: 0.1}, // mixed: still rejected
	}
	for _, plan := range plans {
		s := short("fleet-plan", apps.Memcached(40000))
		s.Duration = sim.Second
		s.Faults = plan
		if _, err := Run(s); err == nil {
			t.Errorf("single-server scenario accepted fleet plan %q", plan)
		}
	}
}

// TestFleetScopeRejectionLeavesCallerUntouched: a scenario refused for a
// fleet-only fault plan or a pool plan must be refused in validate —
// before Run binds the single-use Checker or announces the predictor —
// so the caller's checker is still bindable and its trace still empty.
// (Both refusals used to sit after Checker.Bind and OnPredictorInfo.)
func TestFleetScopeRejectionLeavesCallerUntouched(t *testing.T) {
	cases := []struct {
		name   string
		refuse func(*Scenario)
	}{
		{"fleet-only fault plan", func(s *Scenario) { s.Faults = faults.Plan{GrantDropProb: 0.2} }},
		{"mixed fault plan", func(s *Scenario) { s.Faults = faults.Plan{HypercallFailProb: 0.1, ServerCrashProb: 0.01} }},
		{"pool plan", func(s *Scenario) {
			s.Pools = market.Config{Pools: []market.PoolSpec{{Name: "acme", Reserved: 2}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			w := obs.NewJSONL(&buf)
			s := short("refused", apps.Memcached(40000))
			s.Duration = 200 * sim.Millisecond
			s.Predictor = PredictorEWMA // would announce itself at the head of the trace
			s.Checker = check.New()
			s.Observer = w
			bad := s
			tc.refuse(&bad)
			if _, err := Run(bad); err == nil {
				t.Fatal("single-server scenario accepted a fleet-scoped plan")
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if buf.Len() != 0 {
				t.Errorf("refused scenario wrote into the caller's trace: %s", buf.Bytes())
			}
			// The same checker must still be able to verify a run.
			res, err := Run(s)
			if err != nil {
				t.Fatalf("checker burned by the refused scenario: %v", err)
			}
			if res.Check == nil || !res.Check.OK() {
				t.Fatalf("follow-up run not verified: %v", res.Check)
			}
		})
	}
}

// TestChaosDeterministicFromSeed: the whole fault schedule hangs off the
// scenario seed, so a chaotic run repeated with the same seed must
// reproduce the trace byte for byte and every fault counter exactly.
func TestChaosDeterministicFromSeed(t *testing.T) {
	run := func() ([]byte, *Result) {
		s := short("chaos-det", apps.Memcached(40000))
		s.Duration = 3 * sim.Second
		s.Faults = chaosPlan()
		return chaosTrace(t, s)
	}
	trace1, res1 := run()
	trace2, res2 := run()
	if !bytes.Equal(trace1, trace2) {
		t.Fatalf("same seed, different chaos trace (%d vs %d bytes)", len(trace1), len(trace2))
	}
	if res1.FaultsInjected == 0 {
		t.Fatal("chaos plan injected nothing")
	}
	if res1.FaultsInjected != res2.FaultsInjected ||
		res1.ResizeRetries != res2.ResizeRetries ||
		res1.ResizeFailures != res2.ResizeFailures ||
		res1.Degradations != res2.Degradations ||
		res1.P99(0) != res2.P99(0) {
		t.Fatalf("same seed, different chaos results:\n%+v\n%+v", res1, res2)
	}
}

// TestChaosRunSurvivesAndStaysLegal: under a moderate fault mix the
// agent keeps running to the end of the scenario, retries failed
// hypercalls, and the full invariant checker stays clean — faults bend
// the run, never break its legality.
func TestChaosRunSurvivesAndStaysLegal(t *testing.T) {
	s := short("chaos-legal", apps.Memcached(40000))
	s.Faults = chaosPlan()
	_, res := chaosTrace(t, s)
	if err := res.Check.Err(); err != nil {
		t.Fatalf("invariant violations under chaos:\n%s", res.Check)
	}
	if res.Windows == 0 {
		t.Fatal("agent did not run")
	}
	if res.FaultsInjected == 0 {
		t.Fatal("no faults injected")
	}
	if res.ResizeFailures == 0 || res.ResizeRetries == 0 {
		t.Fatalf("hfail=0.2 over 6s: failures=%d retries=%d, want both >0",
			res.ResizeFailures, res.ResizeRetries)
	}
	if res.Primaries[0].Latency.Count == 0 {
		t.Fatal("no latency samples")
	}
}

// TestChaosHeavyFaultsForceDegradation: with every hypercall failing the
// retry ladder exhausts, the agent degrades to NoHarvest, and the
// checker verifies the degraded windows are pinned to the allocation.
func TestChaosHeavyFaultsForceDegradation(t *testing.T) {
	s := short("chaos-degrade", apps.Memcached(40000))
	s.Faults = faults.Plan{HypercallFailProb: 1}
	_, res := chaosTrace(t, s)
	if err := res.Check.Err(); err != nil {
		t.Fatalf("invariant violations while degraded:\n%s", res.Check)
	}
	if res.Degradations == 0 {
		t.Fatal("permanent hypercall failure never degraded the agent")
	}
	if !res.Degraded {
		t.Fatal("agent not degraded at end of run despite faults never clearing")
	}
	if res.ResizesAborted == 0 {
		t.Fatal("no aborted resizes despite hfail=1")
	}
}

// TestChaosCrashRestartKeepsRunning: frequent crash/restart cycles with
// model loss still leave a live, legal agent — missed windows are
// counted, not fatal.
func TestChaosCrashRestartKeepsRunning(t *testing.T) {
	s := short("chaos-crash", apps.Memcached(40000))
	s.Faults = faults.Plan{CrashProb: 0.05, StallProb: 0.05, LoseModel: true}
	_, res := chaosTrace(t, s)
	if err := res.Check.Err(); err != nil {
		t.Fatalf("invariant violations across restarts:\n%s", res.Check)
	}
	if res.Crashes == 0 || res.Stalls == 0 {
		t.Fatalf("crashes=%d stalls=%d, want both >0 at prob 0.05 per window", res.Crashes, res.Stalls)
	}
	if res.MissedWindows == 0 {
		t.Fatal("250ms restarts missed no 25ms windows")
	}
	if res.Windows < 50 {
		t.Fatalf("only %d windows over 6s; agent did not keep running", res.Windows)
	}
}
