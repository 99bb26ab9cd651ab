package check_test

// Job-invariant mutant gallery: capture the job event stream of a real
// fleet-scheduler run under tenant churn (so evictions, requeues, and
// resumed attempts all appear), then replay deliberately corrupted
// copies — each modeling a plausible scheduler bug — into fresh
// JobCheckers and assert every mutant is flagged while the unmodified
// stream stays clean.

import (
	"testing"

	"smartharvest/internal/check"
	"smartharvest/internal/cluster"
	"smartharvest/internal/obs"
	"smartharvest/internal/sched"
	"smartharvest/internal/sim"
)

const (
	jobMutantServers     = 2
	jobMutantMaxRequeues = 3
)

// captureJobStream runs a churn-heavy scheduler simulation and returns
// its job events in order. The run is deterministic, so every subtest
// mutates the same baseline; it is chosen so the stream provably
// contains an eviction, a requeue, a resumed (attempt >= 2) start, and a
// completion.
func captureJobStream(t *testing.T) []obs.Record {
	t.Helper()
	ring := obs.NewRing(streamCap)
	res, err := sched.Run(sched.Config{
		Fleet: cluster.Config{
			Servers:      jobMutantServers,
			ArrivalRate:  2.5,
			MeanLifetime: 3 * sim.Second,
			Duration:     40 * sim.Second,
			Warmup:       2 * sim.Second,
			Seed:         13,
			Observer:     ring,
		},
		Policy:      sched.FirstFit,
		ArrivalRate: 2,
		MaxRequeues: jobMutantMaxRequeues,
	})
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if res.Evictions == 0 || res.Requeues == 0 || res.Completed == 0 {
		t.Fatalf("baseline run too quiet: %d evictions, %d requeues, %d completed",
			res.Evictions, res.Requeues, res.Completed)
	}
	var jobs []obs.Record
	for _, r := range recorded(t, ring) {
		switch r.Kind {
		case obs.KindJobSubmit, obs.KindJobStart, obs.KindJobEvict,
			obs.KindJobRequeue, obs.KindJobComplete, obs.KindJobSLOMiss:
			jobs = append(jobs, r)
		}
	}
	if len(jobs) == 0 {
		t.Fatal("baseline run produced no job events")
	}
	return jobs
}

// boundJobs returns a JobChecker bound to the baseline run's shape.
func boundJobs(t *testing.T) *check.JobChecker {
	t.Helper()
	c := check.NewJobChecker()
	if err := c.Bind(check.JobConfig{
		MaxRequeues: jobMutantMaxRequeues,
		Servers:     jobMutantServers,
	}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestJobMutantGallery(t *testing.T) {
	base := captureJobStream(t)

	t.Run("clean baseline passes", func(t *testing.T) {
		rep := replay(boundJobs(t), base)
		wantClean(t, rep)
		if rep.Events != uint64(len(base)) {
			t.Fatalf("checker saw %d events, stream has %d", rep.Events, len(base))
		}
	})

	isResumedStart := func(r obs.Record) bool {
		return r.Kind == obs.KindJobStart && r.JobStart.Attempt >= 2
	}
	isEvict := func(r obs.Record) bool { return r.Kind == obs.KindJobEvict }
	isComplete := func(r obs.Record) bool { return r.Kind == obs.KindJobComplete }
	isStart := func(r obs.Record) bool { return r.Kind == obs.KindJobStart }

	mutants := []struct {
		name      string
		invariant string
		mutate    func(recs []obs.Record) []obs.Record
	}{
		{
			// The scheduler resumes an evicted job but forgets to subtract
			// its checkpoint: the remainder it restarts with is too large,
			// and the evicted work would run (and be credited) twice.
			name:      "resume double-counts evicted work",
			invariant: check.InvJobProgress,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "resumed start", isResumedStart)
				recs[i].JobStart.Remaining += 5 * sim.Millisecond
				return recs
			},
		},
		{
			// An eviction reports more progress than the job's total work —
			// the checkpoint accounting overflowed the allotment.
			name:      "eviction checkpoint exceeds allotment",
			invariant: check.InvJobProgress,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "evict", isEvict)
				recs[i].JobEvict.Progress += 100 * sim.Second
				return recs
			},
		},
		{
			// A placement grants more cores than the server has free
			// harvested capacity — the classic lost-update on the
			// committed-core account.
			name:      "grant exceeds free harvest",
			invariant: check.InvJobCapacity,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "start", isStart)
				recs[i].JobStart.Grant = recs[i].JobStart.Harvest + 1
				return recs
			},
		},
		{
			// An eviction is mislabeled final within budget: the scheduler
			// would drop a job it still owes a retry.
			name:      "premature final eviction",
			invariant: check.InvJobRequeue,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "evict", isEvict)
				recs[i].JobEvict.Final = true
				return recs
			},
		},
		{
			// A completion is reported for a job that was never started —
			// e.g. a stale callback surviving an eviction.
			name:      "completion without a start",
			invariant: check.InvJobLifecycle,
			mutate: func(recs []obs.Record) []obs.Record {
				i := indexOf(t, recs, "complete", isComplete)
				recs[i].JobComplete.Job = "job-ghost"
				return recs
			},
		},
	}

	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			recs := m.mutate(append([]obs.Record(nil), base...))
			rep := replay(boundJobs(t), recs)
			wantViolation(t, rep, m.invariant)
		})
	}
}

// TestJobMutantRequeuePastBudget drives the requeue budget invariant with
// a synthetic stream: the stream itself claims evictions beyond the
// budget are non-final and keeps requeueing.
func TestJobMutantRequeuePastBudget(t *testing.T) {
	c := check.NewJobChecker()
	if err := c.Bind(check.JobConfig{MaxRequeues: 1, Servers: 1}); err != nil {
		t.Fatal(err)
	}
	at := sim.Second
	c.OnJobSubmit(obs.JobSubmit{At: at, Job: "j", Work: sim.Second, Width: 2})
	for ev := 1; ev <= 3; ev++ {
		c.OnJobStart(obs.JobStart{
			At: at + sim.Time(ev)*sim.Second, Job: "j", Server: 0,
			Grant: 1, Harvest: 4, Attempt: ev, Remaining: sim.Second,
		})
		c.OnJobEvict(obs.JobEvict{
			At: at + sim.Time(ev)*sim.Second + 500*sim.Millisecond, Job: "j",
			Server: 0, Progress: 0, Evictions: ev, Final: false,
		})
		c.OnJobRequeue(obs.JobRequeue{
			At: at + sim.Time(ev)*sim.Second + 500*sim.Millisecond, Job: "j",
			Evictions: ev, Remaining: sim.Second,
		})
	}
	wantViolation(t, c.Finish(), check.InvJobRequeue)
}

// TestJobMutantRequeueAfterFinal pins the other half of the budget
// contract: once an eviction is final, the job must never reappear.
func TestJobMutantRequeueAfterFinal(t *testing.T) {
	c := check.NewJobChecker()
	if err := c.Bind(check.JobConfig{MaxRequeues: 1, Servers: 1}); err != nil {
		t.Fatal(err)
	}
	c.OnJobSubmit(obs.JobSubmit{At: sim.Second, Job: "j", Work: sim.Second, Width: 1})
	c.OnJobStart(obs.JobStart{
		At: 2 * sim.Second, Job: "j", Server: 0,
		Grant: 1, Harvest: 2, Attempt: 1, Remaining: sim.Second,
	})
	c.OnJobEvict(obs.JobEvict{
		At: 3 * sim.Second, Job: "j", Server: 0,
		Progress: 0, Evictions: 1, Final: false,
	})
	c.OnJobRequeue(obs.JobRequeue{
		At: 3 * sim.Second, Job: "j", Evictions: 1, Remaining: sim.Second,
	})
	c.OnJobStart(obs.JobStart{
		At: 4 * sim.Second, Job: "j", Server: 0,
		Grant: 1, Harvest: 2, Attempt: 2, Remaining: sim.Second,
	})
	c.OnJobEvict(obs.JobEvict{
		At: 5 * sim.Second, Job: "j", Server: 0,
		Progress: 0, Evictions: 2, Final: true, // correctly final: 2 > budget 1
	})
	c.OnJobRequeue(obs.JobRequeue{
		At: 5 * sim.Second, Job: "j", Evictions: 2, Remaining: sim.Second,
	})
	wantViolation(t, c.Finish(), check.InvJobRequeue)
}

// TestJobMutantProgressRegression pins monotonicity: a later eviction may
// never report less progress than an earlier one.
func TestJobMutantProgressRegression(t *testing.T) {
	c := check.NewJobChecker()
	if err := c.Bind(check.JobConfig{MaxRequeues: 3, Servers: 1}); err != nil {
		t.Fatal(err)
	}
	c.OnJobSubmit(obs.JobSubmit{At: sim.Second, Job: "j", Work: 4 * sim.Second, Width: 2})
	c.OnJobStart(obs.JobStart{
		At: 2 * sim.Second, Job: "j", Server: 0,
		Grant: 2, Harvest: 4, Attempt: 1, Remaining: 4 * sim.Second,
	})
	c.OnJobEvict(obs.JobEvict{
		At: 3 * sim.Second, Job: "j", Server: 0,
		Progress: 2 * sim.Second, Evictions: 1, Final: false,
	})
	c.OnJobRequeue(obs.JobRequeue{
		At: 3 * sim.Second, Job: "j", Evictions: 1, Remaining: 2 * sim.Second,
	})
	c.OnJobStart(obs.JobStart{
		At: 4 * sim.Second, Job: "j", Server: 0,
		Grant: 2, Harvest: 4, Attempt: 2, Remaining: 2 * sim.Second,
	})
	c.OnJobEvict(obs.JobEvict{
		At: 5 * sim.Second, Job: "j", Server: 0,
		Progress:  sim.Second, // regressed below the 2s checkpoint
		Evictions: 2, Final: false,
	})
	wantViolation(t, c.Finish(), check.InvJobProgress)
}
