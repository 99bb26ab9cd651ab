// Package rtagent paces a sim.Loop against a wall clock, so the one
// EVMAgent (internal/core) that drives the simulator also runs in real
// time over a host backend like internal/hostcg. It holds no agent logic:
// windows, safeguards, retries and degradation all live in core.Agent,
// which touches time only through the loop.
package rtagent

import (
	"context"
	"time"

	"smartharvest/internal/sim"
)

// Clock abstracts time so the pacer is testable without real sleeping.
type Clock interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// RealClock paces against the OS clock.
type RealClock struct{}

// Now implements Clock.
func (RealClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (RealClock) Sleep(d time.Duration) { time.Sleep(d) }

// Run steps loop in real time until ctx is done or no event is pending:
// it sleeps until the next event is due, then fires it. Loop time is the
// wall time elapsed since the call (offset by the loop's clock at entry).
//
// Lateness rule: an event the pacer reaches late — an oversleep, a
// suspended process, a slow callback — fires with the loop clock at the
// elapsed wall time rather than at its scheduled time (sim.Loop.StepLate).
// The agent re-arms everything relative to Now(), so a late wake-up costs
// one late poll, which closes the overdue window, not a burst of catch-up
// polls replaying time that is gone.
//
// Cancellation is observed between events: Run returns within one
// pending-event sleep of ctx being done. It must be the only goroutine
// touching the loop and whatever its callbacks touch.
func Run(ctx context.Context, loop *sim.Loop, clock Clock) {
	start, base := clock.Now(), loop.Now()
	for ctx.Err() == nil {
		next, ok := loop.Next()
		if !ok {
			return
		}
		now := base + sim.Duration(clock.Now().Sub(start))
		if next > now {
			clock.Sleep((next - now).ToDuration())
			continue
		}
		loop.StepLate(now)
	}
}
