package check_test

// The mutant gallery proves the checker is not vacuous: it captures the
// event stream of a real SmartHarvest run, replays deliberately corrupted
// copies — each modeling a plausible agent/hypervisor bug (off-by-one
// resize, skipped safeguard re-arm, stale prediction, ...) — into fresh
// checkers, and asserts every mutant is flagged while the unmodified
// stream stays clean.

import (
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/check"
	"smartharvest/internal/core"
	"smartharvest/internal/harness"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// streamCap bounds a captured baseline (the longest, the single-server
// run with its polls, is ~20k events).
const streamCap = 1 << 15

// recorded returns every event the ring saw, oldest first.
func recorded(t *testing.T, ring *obs.Ring) []obs.Record {
	t.Helper()
	if ring.TotalEvents() != uint64(ring.Len()) {
		t.Fatalf("baseline emitted %d events, ring kept %d; raise streamCap", ring.TotalEvents(), ring.Len())
	}
	return ring.Records()
}

// replay feeds a captured stream to a checker as if the run were live —
// through its typed On* methods, as an emitter would — and returns its
// report. It is the one replay loop the four mutant galleries share.
func replay(c interface {
	obs.Observer
	Finish() *check.Report
}, recs []obs.Record) *check.Report {
	for i := range recs {
		obs.Dispatch(c, &recs[i])
	}
	return c.Finish()
}

// captureStream runs the standard Memcached+CPUBully scenario once and
// returns the full event stream plus the config a checker binds to. The
// run is deterministic, so every subtest mutates the same baseline.
func captureStream(t *testing.T) ([]obs.Record, check.Config) {
	t.Helper()
	ring := obs.NewRing(streamCap)
	s := harness.Scenario{
		Name:              "mutant-baseline",
		Primaries:         []apps.PrimarySpec{apps.Memcached(40000)},
		Batch:             harness.BatchCPUBully,
		Duration:          1 * sim.Second,
		Warmup:            200 * sim.Millisecond,
		Seed:              1,
		LongTermSafeguard: true,
		Observer:          ring,
	}
	if _, err := harness.Run(s); err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	recs := recorded(t, ring)
	if len(recs) == 0 {
		t.Fatal("baseline run produced no events")
	}
	agentCfg := core.DefaultConfig(10, 1)
	return recs, check.Config{
		TotalCores:        11,
		PrimaryAlloc:      10,
		PrimaryVMCores:    10,
		ElasticMin:        1,
		HarvestPause:      agentCfg.HarvestPause,
		QoSViolationFrac:  agentCfg.QoSViolationFrac,
		LongTermSafeguard: true,
	}
}

// indexOf returns the stream index of the n-th record matching pred.
func indexOf(t *testing.T, recs []obs.Record, what string, pred func(obs.Record) bool) int {
	t.Helper()
	for i, r := range recs {
		if pred(r) {
			return i
		}
	}
	t.Fatalf("baseline stream has no %s", what)
	return -1
}

func TestMutantGallery(t *testing.T) {
	recs, cfg := captureStream(t)

	t.Run("clean baseline passes", func(t *testing.T) {
		rep := replay(bound(t, cfg), recs)
		wantClean(t, rep)
		if rep.Events != uint64(len(recs)) {
			t.Fatalf("checker saw %d events, stream has %d", rep.Events, len(recs))
		}
	})

	isResize := func(r obs.Record) bool { return r.Kind == obs.KindResize }
	isWindow := func(r obs.Record) bool { return r.Kind == obs.KindWindowEnd }
	isTrip := func(r obs.Record) bool { return r.Kind == obs.KindSafeguardTrip }

	// Each mutant corrupts a copy of the stream the way a real bug in the
	// agent or hypervisor would, and names the invariant that must catch
	// it.
	mutants := []struct {
		name      string
		invariant string
		mutate    func(recs []obs.Record) []obs.Record
	}{
		{
			// A resize lands one core away from what was requested — the
			// classic off-by-one in the core-moving loop. The next resize's
			// FromCores exposes the broken chain.
			name:      "off-by-one resize",
			invariant: check.InvResizeChain,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "resize", isResize)
				recs[i].Resize.ToCores--
				if recs[i].Resize.ToCores == recs[i].Resize.FromCores {
					recs[i].Resize.ToCores -= 2
				}
				return recs
			},
		},
		{
			// The hypervisor grows the primary group past its allocation,
			// eating the ElasticVM's guaranteed core.
			name:      "resize steals the elastic minimum",
			invariant: check.InvConservation,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "resize", isResize)
				recs[i].Resize.FromCores = 10 // keep the chain intact
				recs[i].Resize.ToCores = 11   // total cores: none left for the EVM
				return recs
			},
		},
		{
			// The safeguard fires but the agent forgets to re-arm the
			// window: the trip's safeguard decision never happens (the next
			// window is an ordinary one).
			name:      "skipped safeguard re-arm",
			invariant: check.InvSafeguard,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "safeguard trip", isTrip)
				// The window immediately after the trip is its decision;
				// a buggy agent would deliver it unflagged.
				recs[i+1].WindowEnd.Safeguard = false
				return recs
			},
		},
		{
			// The agent applies a target computed from a stale prediction:
			// the reported prediction and the applied target disagree under
			// the clamp rule target == min(max(pred, busy+1), alloc).
			name:      "stale prediction",
			invariant: check.InvClamp,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "unclamped window", func(r obs.Record) bool {
					return isWindow(r) && r.WindowEnd.Clamp == obs.ClampNone
				})
				recs[i].WindowEnd.Prediction++ // target no longer matches
				return recs
			},
		},
		{
			// The sim's event loop delivers a window out of time order.
			name:      "time regression",
			invariant: check.InvTimeMonotonic,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "second window", func(r obs.Record) bool {
					return isWindow(r) && r.WindowEnd.Seq == 2
				})
				recs[i].WindowEnd.At = 0
				return recs
			},
		},
		{
			// The agent drops a whole learning window (a lost timer tick):
			// the sequence numbering gaps.
			name:      "dropped window",
			invariant: check.InvWindowSeq,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "window", isWindow)
				return append(recs[:i:i], recs[i+1:]...)
			},
		},
		{
			// The peak tracker forgets this window's own peak, so the
			// trailing-second peak under-reports (a prediction fed by it
			// would under-allocate).
			name:      "peak history excludes current window",
			invariant: check.InvWindowShape,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "busy window", func(r obs.Record) bool {
					return isWindow(r) && r.WindowEnd.Features.Max > 0
				})
				recs[i].WindowEnd.Peak1s = recs[i].WindowEnd.Features.Max - 1
				return recs
			},
		},
	}

	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			mutated := m.mutate(append([]obs.Record(nil), recs...))
			rep := replay(bound(t, cfg), mutated)
			wantViolation(t, rep, m.invariant)
			if len(rep.Context) == 0 {
				t.Fatal("violation report carries no ring-buffer context")
			}
		})
	}
}

// TestMutantPauseTooShort covers the long-term safeguard's exact-duration
// invariant on a synthetic stream (the calibrated workloads don't trip
// the QoS guard in a healthy short run, so there is nothing to mutate in
// the captured stream).
func TestMutantPauseTooShort(t *testing.T) {
	_, cfg := captureStream(t)
	c := bound(t, cfg)
	c.OnQoSTrip(obs.QoSTrip{
		At: sim.Second, Frac: 0.05, Waits: 40,
		// A buggy agent pauses for half the mandated duration.
		PauseUntil: sim.Second + cfg.HarvestPause/2,
	})
	wantViolation(t, c.Finish(), check.InvPauseDuration)
}

// TestMutantHarvestWhilePaused: the agent keeps harvesting during a QoS
// pause — the exact failure the long-term safeguard exists to prevent.
func TestMutantHarvestWhilePaused(t *testing.T) {
	_, cfg := captureStream(t)
	c := bound(t, cfg)
	c.OnResize(obs.Resize{At: 1, FromCores: 10, ToCores: 4})
	c.OnQoSTrip(obs.QoSTrip{At: sim.Second, Frac: 0.05, Waits: 40, PauseUntil: sim.Second + cfg.HarvestPause})
	c.OnResize(obs.Resize{At: sim.Second, FromCores: 4, ToCores: 10})
	// Mid-pause, a buggy agent resumes harvesting.
	c.OnResize(obs.Resize{At: 2 * sim.Second, FromCores: 10, ToCores: 5})
	wantViolation(t, c.Finish(), check.InvPausedHarvest)
}

// degradedWindow builds a shape-consistent window decision for the
// degradation-ladder mutants.
func degradedWindow(at sim.Time, seq uint64, target int, clamp obs.ClampReason) obs.WindowEnd {
	return obs.WindowEnd{
		At: at, Seq: seq, Samples: 500,
		Features: obs.Features{Min: 2, Max: 2, Avg: 2, Std: 0, Median: 2},
		Peak1s:   2, Busy: 2,
		Prediction: target, Target: target, Clamp: clamp,
	}
}

// resilienceConfig extends the captured config with the default
// resilience policy, as harness.Run binds it.
func resilienceConfig(t *testing.T) check.Config {
	t.Helper()
	_, cfg := captureStream(t)
	pol := core.DefaultResilience()
	cfg.MaxRetries = pol.MaxRetries
	cfg.RetryBackoff = pol.RetryBackoff
	cfg.Probation = pol.Probation
	return cfg
}

// TestMutantHarvestsWhileDegraded: after falling back to NoHarvest, a
// buggy agent keeps making harvesting decisions — exactly what degraded
// mode exists to prevent.
func TestMutantHarvestsWhileDegraded(t *testing.T) {
	cfg := resilienceConfig(t)
	c := bound(t, cfg)
	c.OnDegradedEnter(obs.DegradedEnter{
		At: sim.Second, Reason: obs.DegradeResizeFailures, Failures: 3,
	})
	// Target 4 < alloc 10: the degraded agent is still harvesting.
	c.OnWindowEnd(degradedWindow(sim.Second+25*sim.Millisecond, 1, 4, obs.ClampBusyFloor))
	wantViolation(t, c.Finish(), check.InvDegraded)
}

// TestMutantSafeguardWhileDegraded: the short-term safeguard must not
// fire while degraded (the target is pinned to the allocation).
func TestMutantSafeguardWhileDegraded(t *testing.T) {
	cfg := resilienceConfig(t)
	c := bound(t, cfg)
	c.OnDegradedEnter(obs.DegradedEnter{
		At: sim.Second, Reason: obs.DegradeMissedPolls, MissedPolls: 50,
	})
	c.OnSafeguardTrip(obs.SafeguardTrip{At: sim.Second + sim.Millisecond, Busy: 5, Target: 5})
	wantViolation(t, c.Finish(), check.InvDegraded)
}

// TestMutantRetriesForever: a buggy retry loop that never gives up —
// attempts past MaxRetries must be flagged.
func TestMutantRetriesForever(t *testing.T) {
	cfg := resilienceConfig(t)
	c := bound(t, cfg)
	for attempt := 1; attempt <= cfg.MaxRetries+2; attempt++ {
		c.OnResizeRetry(obs.ResizeRetry{
			At:      sim.Second + sim.Time(attempt)*sim.Millisecond,
			Target:  4,
			Attempt: attempt,
			Backoff: cfg.RetryBackoff << (attempt - 1),
		})
	}
	wantViolation(t, c.Finish(), check.InvRetry)
}

// TestMutantRetryWithoutBackoff: retries at a constant delay instead of
// exponential backoff hammer a failing hypervisor.
func TestMutantRetryWithoutBackoff(t *testing.T) {
	cfg := resilienceConfig(t)
	c := bound(t, cfg)
	c.OnResizeRetry(obs.ResizeRetry{
		At: sim.Second, Target: 4, Attempt: 2,
		Backoff: cfg.RetryBackoff, // should be RetryBackoff << 1
	})
	wantViolation(t, c.Finish(), check.InvRetry)
}

// TestMutantProbationCutShort: the degraded agent re-enters harvesting
// before the clean probation period has elapsed.
func TestMutantProbationCutShort(t *testing.T) {
	cfg := resilienceConfig(t)
	c := bound(t, cfg)
	c.OnFaultInjected(obs.FaultInjected{At: sim.Second, Kind: obs.FaultPollDrop})
	c.OnDegradedEnter(obs.DegradedEnter{
		At: sim.Second, Reason: obs.DegradeMissedPolls, MissedPolls: 50,
	})
	early := sim.Second + cfg.Probation/2
	c.OnDegradedExit(obs.DegradedExit{
		At: early, CleanFor: early - sim.Second, Dur: early - sim.Second,
	})
	wantViolation(t, c.Finish(), check.InvProbation)
}

// TestMutantProbationMisanchored: the exit waits long enough but lies
// about the clean period (its anchor ignores a fault seen mid-pause).
func TestMutantProbationMisanchored(t *testing.T) {
	cfg := resilienceConfig(t)
	c := bound(t, cfg)
	c.OnFaultInjected(obs.FaultInjected{At: sim.Second, Kind: obs.FaultPollDrop})
	c.OnDegradedEnter(obs.DegradedEnter{
		At: sim.Second, Reason: obs.DegradeMissedPolls, MissedPolls: 50,
	})
	// A second visible fault mid-degradation moves the anchor forward.
	c.OnFaultInjected(obs.FaultInjected{At: sim.Second + 500*sim.Millisecond, Kind: obs.FaultHypercallFail})
	exit := sim.Second + cfg.Probation + 600*sim.Millisecond
	c.OnDegradedExit(obs.DegradedExit{
		At: exit, CleanFor: exit - sim.Second, Dur: exit - sim.Second,
	})
	wantViolation(t, c.Finish(), check.InvProbation)
}

// TestDegradedLadderCleanStream: the legal ladder — enter, pinned
// windows, exact probation exit, harvesting resumes — passes every
// invariant, proving the degraded checks are not vacuously strict.
func TestDegradedLadderCleanStream(t *testing.T) {
	cfg := resilienceConfig(t)
	c := bound(t, cfg)
	c.OnFaultInjected(obs.FaultInjected{At: sim.Second, Kind: obs.FaultPollDrop})
	c.OnDegradedEnter(obs.DegradedEnter{
		At: sim.Second, Reason: obs.DegradeMissedPolls, MissedPolls: 50,
	})
	c.OnWindowEnd(degradedWindow(sim.Second, 1, 10, obs.ClampDegraded))
	c.OnWindowEnd(degradedWindow(sim.Second+25*sim.Millisecond, 2, 10, obs.ClampDegraded))
	exit := sim.Second + cfg.Probation
	c.OnDegradedExit(obs.DegradedExit{
		At: exit, CleanFor: cfg.Probation, Dur: cfg.Probation,
	})
	c.OnWindowEnd(degradedWindow(exit, 3, 3, obs.ClampNone))
	rep := c.Finish()
	if !rep.OK() {
		t.Fatalf("clean degraded ladder flagged: %v", rep.First())
	}
}
