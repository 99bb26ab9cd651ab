package sched

import (
	"slices"

	"smartharvest/internal/faults"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// degradeWindow is the sliding window over fault signals that
// Config.DegradeEnter and DegradeExit count.
const degradeWindow = 250 * sim.Millisecond

// health is the scheduler's self-healing collaborator under fleet-level
// chaos (internal/faults fleet plans): dropped placement grants are
// retried with bounded exponential backoff, servers whose grants keep
// failing — or that crash outright — are quarantined with doubling
// windows and re-admitted through probation, jobs orphaned by a crash
// are evicted at the crash instant and re-placed across the survivors,
// and a sliding window over fault signals degrades admission until the
// storm subsides. It owns Result's five resilience counters.
//
// Without a fleet fault plan inj is nil and health is inert: every grant
// is delivered, every read is live, the server table stays zero (nothing
// is quarantined, the fleet never calls the crash handlers), admission
// never degrades — no events, no RNG draws, no timers.
type health struct {
	s   *scheduler
	inj *faults.FleetInjector

	servers    []serverHealth
	faultTimes []sim.Time
	degraded   bool // placement falls back to first-fit, one per round
}

// serverHealth is the scheduler's view of one server.
type serverHealth struct {
	failStreak  int // consecutive dropped grants
	quarStreak  int // quarantine re-entries (doubles the window)
	quarantined bool
	quarUntil   sim.Time
	probUntil   sim.Time
	lastHarvest int // telemetry cache backing stale reads
}

func newHealth(s *scheduler) *health {
	h := &health{s: s, inj: s.fleet.FleetInjector(), servers: make([]serverHealth, s.fleet.Servers())}
	s.fleet.SetCrashHandlers(h.onCrash, h.onRestart)
	return h
}

// inQuarantine reports whether server i is inside an active quarantine
// window and so off-limits for placement. (Crashed servers need no guard:
// they report zero harvested and forecast cores, so no policy picks them.)
func (h *health) inQuarantine(i int) bool {
	sv := &h.servers[i]
	return sv.quarantined && h.s.loop.Now() < sv.quarUntil
}

// grant draws the fate of one placement grant and reports whether it was
// delivered now, in which case the caller starts the job. Otherwise
// health keeps the job: a dropped grant is retried with backoff and then
// requeued, a delayed one lands late and is re-validated.
func (h *health) grant(j *job, target, attempt int) bool {
	if h.inj == nil {
		return true
	}
	s := h.s
	drop, delay := h.inj.GrantFault(target)
	if drop {
		now := s.loop.Now()
		h.noteFault(now)
		sv := &h.servers[target] // a long enough drop streak quarantines it
		sv.failStreak++
		if sv.failStreak >= s.cfg.QuarantineAfter && !h.inQuarantine(target) {
			h.quarantine(target, now, false)
		}
		if attempt > s.cfg.MaxPlacementRetries {
			s.requeue(j) // retry budget exhausted: wait for a calmer fleet
			return false
		}
		backoff := s.cfg.PlacementBackoff << (attempt - 1)
		s.res.PlacementRetries++
		s.obs.OnPlacementRetry(obs.PlacementRetry{
			At: now, Job: j.name, Server: target, Attempt: attempt, Backoff: backoff,
		})
		s.loop.After(backoff, func() { h.retry(j, attempt+1) })
		return false
	}
	h.servers[target].failStreak = 0 // the server answered, if late
	if delay > 0 {
		s.loop.After(delay, func() { h.land(j, target) })
		return false
	}
	return true
}

// retry re-runs a dropped placement with a fresh pick — the original
// target may have been quarantined or crashed, or the job's pool may
// have drained, while the backoff ran.
func (h *health) retry(j *job, attempt int) {
	s := h.s
	if s.pools.admissible(j) {
		if target := s.pick(); target >= 0 {
			if h.grant(j, target, attempt) {
				s.start(j, target)
			}
			return
		}
	}
	s.requeue(j)
}

// land completes a delayed grant, re-validating the server's health, its
// capacity (none, if it crashed) and the job's pool: all may have changed
// in flight.
func (h *health) land(j *job, target int) {
	s := h.s
	if h.inQuarantine(target) || s.free(target) < 1 || !s.pools.admissible(j) {
		s.requeue(j)
		return
	}
	s.start(j, target)
}

// harvest returns server i's harvested cores as this round's reconcile
// message reports them, and whether anything trustworthy was heard: a
// crashed server sends nothing (its jobs are orphaned already) and the
// message can be lost. A stale reading that shows a collapse is not
// evidence of one — it may be a cached zero from before the harvest
// ramped up — so it is confirmed by a second read; if the channel stays
// stale the server waits for next round rather than evict on that.
func (h *health) harvest(i int, now sim.Time) (cores int, heard bool) {
	s := h.s
	if h.inj == nil {
		return s.fleet.HarvestedCores(i), true
	}
	if s.fleet.Crashed(i) {
		return 0, false
	}
	if h.inj.ReconcileLoss(i) {
		h.noteFault(now)
		return 0, false
	}
	cores, fresh := h.read(i)
	if !fresh && cores < s.committed[i] {
		if cores, fresh = h.read(i); !fresh {
			return 0, false
		}
	}
	return cores, true
}

// read returns server i's harvest telemetry and whether it is fresh; a
// stale read repeats the last fresh value.
func (h *health) read(i int) (int, bool) {
	sv := &h.servers[i]
	if !h.inj.ReadStale(i) {
		sv.lastHarvest = h.s.fleet.HarvestedCores(i)
		return sv.lastHarvest, true
	}
	return sv.lastHarvest, false
}

// noteFault records one fault signal (dropped grant, crash, lost
// reconcile) in the sliding degradation window, entering degraded
// admission when the windowed count crosses the threshold.
func (h *health) noteFault(now sim.Time) {
	h.faultTimes = append(h.faultTimes, now)
	h.pruneFaults(now)
	if !h.degraded && len(h.faultTimes) >= h.s.cfg.DegradeEnter {
		h.setDegraded(now, true)
	}
}

// endRound closes a reconcile round: admission recovers once the
// windowed fault count has subsided to the exit threshold.
func (h *health) endRound(now sim.Time) {
	h.pruneFaults(now)
	if h.degraded && len(h.faultTimes) <= h.s.cfg.DegradeExit {
		h.setDegraded(now, false)
	}
}

func (h *health) pruneFaults(now sim.Time) {
	cut := now - degradeWindow
	h.faultTimes = slices.DeleteFunc(h.faultTimes, func(t sim.Time) bool { return t <= cut })
}

func (h *health) setDegraded(now sim.Time, on bool) {
	s := h.s
	h.degraded = on
	if on {
		s.res.Degraded++
	}
	s.obs.OnAdmissionDegraded(obs.AdmissionDegraded{
		At: now, Entered: on, Faults: len(h.faultTimes), Window: degradeWindow,
	})
}

// quarantine takes server i out of placement rotation for a window that
// doubles with each re-entry, capped at QuarantineMax.
func (h *health) quarantine(server int, now sim.Time, crash bool) {
	s, sv := h.s, &h.servers[server]
	dur := s.cfg.QuarantineMax
	if sv.quarStreak < 32 {
		dur = min(dur, s.cfg.QuarantineDur<<sv.quarStreak)
		sv.quarStreak++
	}
	sv.quarantined = true
	sv.quarUntil = now + dur
	s.res.Quarantines++
	s.obs.OnServerQuarantine(obs.ServerQuarantine{
		At: now, Server: server, Failures: sv.failStreak, Crash: crash, Until: sv.quarUntil,
	})
	s.loop.After(dur, func() { h.probation(server) })
}

// probation re-admits a quarantined server on trial once its window
// elapses: it can take placements again, but one more failure before
// ProbationDur passes re-quarantines it with a doubled window, and a
// clean probation clears its record.
func (h *health) probation(server int) {
	s, sv := h.s, &h.servers[server]
	if s.fleet.Crashed(server) {
		return // down again already: the restart path re-quarantines
	}
	if !sv.quarantined || h.inQuarantine(server) {
		return // stale timer from an earlier, superseded quarantine
	}
	sv.quarantined = false
	sv.probUntil = s.loop.Now() + s.cfg.ProbationDur
	s.obs.OnServerProbation(obs.ServerProbation{
		At: s.loop.Now(), Server: server, Until: sv.probUntil,
	})
	s.loop.After(s.cfg.ProbationDur, func() { h.probationEnd(server) })
	s.tryPlace()
}

func (h *health) probationEnd(server int) {
	sv := &h.servers[server]
	if sv.quarantined || h.s.fleet.Crashed(server) || h.s.loop.Now() < sv.probUntil {
		return // flapped back inside probation, or superseded; the record stands
	}
	sv.failStreak, sv.quarStreak, sv.probUntil = 0, 0, 0
}

// onCrash is the fleet's server-crash callback: every job running on
// the server is orphaned and evicted at once — budget-charged, with
// checkpointed progress intact — then re-placed across the survivors by
// the normal path. (A job whose work finished before the crash is no
// victim; its deferred completion fires at this instant and settles it.)
func (h *health) onCrash(server int) {
	s := h.s
	s.res.Crashes++
	h.noteFault(s.loop.Now())
	for j := s.victim(server, causeCrash); j != nil; j = s.victim(server, causeCrash) {
		s.res.Orphaned++
		s.evict(j, causeCrash)
	}
	h.servers[server].lastHarvest = 0
	s.tryPlace()
}

// onRestart is the fleet's server-restart callback: a returning server
// is not trusted yet — it enters quarantine (doubling with each crash)
// and must pass probation before its record clears.
func (h *health) onRestart(server int) {
	if !h.inQuarantine(server) { // else an active window already covers it
		h.quarantine(server, h.s.loop.Now(), true)
	}
}
