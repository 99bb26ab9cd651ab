package check_test

// Fleet-invariant mutant gallery: capture the full event stream of a
// scheduler run under fleet chaos (server crashes, dropped/delayed
// grants, stale reads, lost reconciles — so crash, restart, quarantine,
// probation, retry, and degraded-admission events all appear), then
// replay deliberately corrupted copies — each modeling a plausible
// self-healing bug — into fresh JobCheckers and assert every mutant is
// flagged while the unmodified stream stays clean. These cases are what
// keep the fleet invariants non-vacuous.

import (
	"testing"

	"smartharvest/internal/check"
	"smartharvest/internal/cluster"
	"smartharvest/internal/faults"
	"smartharvest/internal/obs"
	"smartharvest/internal/sched"
	"smartharvest/internal/sim"
)

// The chaos baseline's fleet size and the scheduler's requeue and
// resilience constants, which boundChaos binds.
const (
	chaosServers      = 2
	chaosMaxRequeues  = 3
	chaosMaxRetries   = 3
	chaosQuarAfter    = 3
	chaosBackoff      = 5 * sim.Millisecond
	chaosQuarDur      = 250 * sim.Millisecond
	chaosQuarMax      = 2 * sim.Second
	chaosProbationDur = 500 * sim.Millisecond
	chaosDegradeEnter = 8
	chaosDegradeExit  = 2
)

// captureChaosStream runs a scheduler simulation under a fleet fault
// plan and returns its job and fleet events in order. The run is
// deterministic; the helper proves the stream exercises every fleet
// event kind, so each mutant below has real material to corrupt.
func captureChaosStream(t *testing.T) []obs.Record {
	t.Helper()
	plan, err := faults.ParsePlan("scrash=0.006,srestartdur=400ms,gdrop=0.7,rloss=0.3,rstale=0.2")
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(streamCap)
	res, err := sched.Run(sched.Config{
		Fleet: cluster.Config{
			Servers:      chaosServers,
			ArrivalRate:  1,
			MeanLifetime: 10 * sim.Second,
			Duration:     40 * sim.Second,
			Warmup:       2 * sim.Second,
			Seed:         13,
			Faults:       plan,
			Observer:     ring,
		},
		Policy:      sched.FirstFit,
		ArrivalRate: 3,
	})
	if err != nil {
		t.Fatalf("chaos baseline run: %v", err)
	}
	if res.Crashes == 0 || res.Orphaned == 0 || res.PlacementRetries == 0 ||
		res.Quarantines == 0 || res.Degraded == 0 {
		t.Fatalf("chaos baseline too quiet: %d crashes, %d orphaned, %d retries, %d quarantines, %d degraded",
			res.Crashes, res.Orphaned, res.PlacementRetries, res.Quarantines, res.Degraded)
	}
	var out []obs.Record
	seen := map[obs.Kind]int{}
	for _, r := range recorded(t, ring) {
		switch r.Kind {
		case obs.KindJobSubmit, obs.KindJobStart, obs.KindJobEvict,
			obs.KindJobRequeue, obs.KindJobComplete, obs.KindJobSLOMiss,
			obs.KindServerCrash, obs.KindServerRestart, obs.KindServerQuarantine,
			obs.KindServerProbation, obs.KindPlacementRetry, obs.KindAdmissionDegraded:
			out = append(out, r)
			seen[r.Kind]++
		}
	}
	for _, k := range []obs.Kind{
		obs.KindServerCrash, obs.KindServerRestart, obs.KindServerQuarantine,
		obs.KindServerProbation, obs.KindPlacementRetry, obs.KindAdmissionDegraded,
	} {
		if seen[k] == 0 {
			t.Fatalf("chaos baseline has no %v events", k)
		}
	}
	return out
}

// boundChaos returns a JobChecker bound to the chaos baseline's shape.
func boundChaos(t *testing.T) *check.JobChecker {
	t.Helper()
	c := check.NewJobChecker()
	if err := c.Bind(check.JobConfig{
		MaxRequeues:         chaosMaxRequeues,
		Servers:             chaosServers,
		MaxPlacementRetries: chaosMaxRetries,
		PlacementBackoff:    chaosBackoff,
		QuarantineDur:       chaosQuarDur,
		QuarantineMax:       chaosQuarMax,
		ProbationDur:        chaosProbationDur,
		DegradeEnter:        chaosDegradeEnter,
		DegradeExit:         chaosDegradeExit,
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFleetMutantGallery(t *testing.T) {
	base := captureChaosStream(t)

	t.Run("clean chaos baseline passes", func(t *testing.T) {
		rep := replay(boundChaos(t), base)
		wantClean(t, rep)
		if rep.Events != uint64(len(base)) {
			t.Fatalf("checker saw %d events, stream has %d", rep.Events, len(base))
		}
	})

	// orphanEvict finds the index of a JobEvict that resolves a crash
	// orphan: same instant as a preceding crash, on the crashed server.
	orphanEvict := func(recs []obs.Record) int {
		for i, r := range recs {
			if r.Kind != obs.KindServerCrash {
				continue
			}
			for k := i + 1; k < len(recs); k++ {
				e := recs[k]
				if e.Kind == obs.KindJobEvict && e.JobEvict.At == r.ServerCrash.At &&
					e.JobEvict.Server == r.ServerCrash.Server {
					return k
				}
			}
		}
		return -1
	}

	mutants := []struct {
		name      string
		invariant string
		mutate    func(recs []obs.Record) []obs.Record
	}{
		{
			// The crash handler loses a job: the server dies with the job
			// still "running" on it, its progress silently gone.
			name:      "crash orphan never evicted",
			invariant: check.InvOrphanProgress,
			mutate: func(recs []obs.Record) []obs.Record {
				i := orphanEvict(recs)
				if i < 0 {
					t.Fatal("baseline has no crash-instant orphan eviction")
				}
				return append(recs[:i], recs[i+1:]...)
			},
		},
		{
			// The quarantine window is stretched past the bounded-doubling
			// schedule — a server benched longer than policy allows.
			name:      "quarantine window off schedule",
			invariant: check.InvQuarantineTiming,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "quarantine", func(r obs.Record) bool {
					return r.Kind == obs.KindServerQuarantine
				})
				recs[i].ServerQuarantine.Until += 3 * sim.Millisecond
				return recs
			},
		},
		{
			// Probation opens with the wrong window length.
			name:      "probation window wrong length",
			invariant: check.InvQuarantineTiming,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "probation", func(r obs.Record) bool {
					return r.Kind == obs.KindServerProbation
				})
				recs[i].ServerProbation.Until += sim.Millisecond
				return recs
			},
		},
		{
			// A retry backs off linearly instead of exponentially — the
			// classic `base * attempt` for `base << (attempt-1)` slip.
			name:      "retry backoff not exponential",
			invariant: check.InvPlacementRetry,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "placement retry", func(r obs.Record) bool {
					return r.Kind == obs.KindPlacementRetry
				})
				recs[i].PlacementRetry.Backoff += sim.Millisecond
				return recs
			},
		},
		{
			// A retry attempt past the configured budget — the op would
			// spin forever instead of requeueing the job.
			name:      "retry past the budget",
			invariant: check.InvPlacementRetry,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "placement retry", func(r obs.Record) bool {
					return r.Kind == obs.KindPlacementRetry
				})
				recs[i].PlacementRetry.Attempt = chaosMaxRetries + 1
				recs[i].PlacementRetry.Backoff = chaosBackoff << chaosMaxRetries
				return recs
			},
		},
		{
			// Degraded admission announced twice in a row — the hysteresis
			// state machine lost track of itself.
			name:      "degraded admission without recovery",
			invariant: check.InvAdmissionLegal,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "admission exit", func(r obs.Record) bool {
					return r.Kind == obs.KindAdmissionDegraded && !r.AdmissionDegraded.Entered
				})
				recs[i].AdmissionDegraded.Entered = true
				recs[i].AdmissionDegraded.Faults = chaosDegradeEnter
				return recs
			},
		},
		{
			// A restart lies about its downtime — crash accounting that
			// would corrupt availability stats.
			name:      "restart downtime lie",
			invariant: check.InvServerHealth,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "server restart", func(r obs.Record) bool {
					return r.Kind == obs.KindServerRestart
				})
				recs[i].ServerRestart.Down += sim.Millisecond
				return recs
			},
		},
	}

	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			recs := m.mutate(append([]obs.Record(nil), base...))
			rep := replay(boundChaos(t), recs)
			wantViolation(t, rep, m.invariant)
		})
	}
}

// TestFleetMutantStartOnCrashedServer pins the health half of placement
// legality with a synthetic stream: a grant landing on a server that is
// down must be flagged.
func TestFleetMutantStartOnCrashedServer(t *testing.T) {
	c := boundChaos(t)
	c.OnJobSubmit(obs.JobSubmit{At: sim.Second, Job: "j", Work: sim.Second, Width: 1})
	c.OnServerCrash(obs.ServerCrash{At: 2 * sim.Second, Server: 0, Down: sim.Second})
	c.OnJobStart(obs.JobStart{
		At: 2*sim.Second + 100*sim.Millisecond, Job: "j", Server: 0,
		Grant: 1, Harvest: 4, Attempt: 1, Remaining: sim.Second,
	})
	wantViolation(t, c.Finish(), check.InvServerHealth)
}

// TestFleetMutantStartDuringQuarantine pins the other half: a grant on a
// quarantined server before its window elapses must be flagged.
func TestFleetMutantStartDuringQuarantine(t *testing.T) {
	c := boundChaos(t)
	c.OnJobSubmit(obs.JobSubmit{At: sim.Second, Job: "j", Work: sim.Second, Width: 1})
	c.OnServerQuarantine(obs.ServerQuarantine{
		At: 2 * sim.Second, Server: 1, Failures: chaosQuarAfter,
		Until: 2*sim.Second + chaosQuarDur,
	})
	c.OnJobStart(obs.JobStart{
		At: 2*sim.Second + chaosQuarDur/2, Job: "j", Server: 1,
		Grant: 1, Harvest: 4, Attempt: 1, Remaining: sim.Second,
	})
	wantViolation(t, c.Finish(), check.InvServerHealth)
}

// TestFleetMutantCrashBookkeeping pins crash/restart alternation: a
// double crash and a restart out of nowhere are both illegal.
func TestFleetMutantCrashBookkeeping(t *testing.T) {
	t.Run("double crash", func(t *testing.T) {
		c := boundChaos(t)
		c.OnServerCrash(obs.ServerCrash{At: sim.Second, Server: 0, Down: sim.Second})
		c.OnServerCrash(obs.ServerCrash{At: 2 * sim.Second, Server: 0, Down: sim.Second})
		wantViolation(t, c.Finish(), check.InvServerHealth)
	})
	t.Run("restart without crash", func(t *testing.T) {
		c := boundChaos(t)
		c.OnServerRestart(obs.ServerRestart{At: sim.Second, Server: 1, Down: sim.Second})
		wantViolation(t, c.Finish(), check.InvServerHealth)
	})
}

// TestFleetMutantRequarantineInsideWindow pins that an active quarantine
// window may not be re-entered before it elapses.
func TestFleetMutantRequarantineInsideWindow(t *testing.T) {
	c := boundChaos(t)
	c.OnServerQuarantine(obs.ServerQuarantine{
		At: sim.Second, Server: 0, Failures: chaosQuarAfter,
		Until: sim.Second + chaosQuarDur,
	})
	c.OnServerQuarantine(obs.ServerQuarantine{
		At: sim.Second + chaosQuarDur/2, Server: 0, Failures: chaosQuarAfter,
		Until: sim.Second + chaosQuarDur/2 + 2*chaosQuarDur,
	})
	wantViolation(t, c.Finish(), check.InvQuarantineTiming)
}

// TestFleetMutantProbationWithoutQuarantine pins that probation is only
// reachable from quarantine.
func TestFleetMutantProbationWithoutQuarantine(t *testing.T) {
	c := boundChaos(t)
	c.OnServerProbation(obs.ServerProbation{
		At: sim.Second, Server: 0, Until: sim.Second + chaosProbationDur,
	})
	wantViolation(t, c.Finish(), check.InvQuarantineTiming)
}

// TestFleetMutantDegradeBelowThreshold pins the degradation thresholds:
// entering on too few windowed faults and recovering on too many are
// both illegal.
func TestFleetMutantDegradeBelowThreshold(t *testing.T) {
	t.Run("enter below threshold", func(t *testing.T) {
		c := boundChaos(t)
		c.OnAdmissionDegraded(obs.AdmissionDegraded{
			At: sim.Second, Entered: true,
			Faults: chaosDegradeEnter - 1, Window: 250 * sim.Millisecond,
		})
		wantViolation(t, c.Finish(), check.InvAdmissionLegal)
	})
	t.Run("exit above threshold", func(t *testing.T) {
		c := boundChaos(t)
		c.OnAdmissionDegraded(obs.AdmissionDegraded{
			At: sim.Second, Entered: true,
			Faults: chaosDegradeEnter, Window: 250 * sim.Millisecond,
		})
		c.OnAdmissionDegraded(obs.AdmissionDegraded{
			At: 2 * sim.Second, Entered: false,
			Faults: chaosDegradeExit + 1, Window: 250 * sim.Millisecond,
		})
		wantViolation(t, c.Finish(), check.InvAdmissionLegal)
	})
}
