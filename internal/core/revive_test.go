package core

import (
	"testing"

	"smartharvest/internal/sim"
)

// pollLog is fakeHV that records the instant of every busy reading: each
// poll that runs (rather than being skipped while the agent is dead) takes
// exactly one.
type pollLog struct {
	*fakeHV
	at []sim.Time
}

func (h *pollLog) BusyPrimaryCores() int {
	h.at = append(h.at, h.loop.Now())
	return h.fakeHV.BusyPrimaryCores()
}

// eventDrivenPollLog adds the run-ahead marker.
type eventDrivenPollLog struct{ *pollLog }

func (eventDrivenPollLog) BusyChangesOnlyInLoopEvents() {}

// oneStall stalls the agent once, at its first window.
type oneStall struct {
	stall sim.Time
	done  bool
}

func (f *oneStall) WindowFault() AgentFault {
	if f.done {
		return AgentFault{}
	}
	f.done = true
	return AgentFault{Stall: f.stall}
}

// TestRevivedAgentRunsOneLoop crashes an agent from outside (ForceCrash)
// for less time than the continuation it had pending, so that continuation
// fires after the revival. It must be dropped: the revived agent runs one
// poll loop, whose readings are never less than a poll interval apart.
func TestRevivedAgentRunsOneLoop(t *testing.T) {
	const dt = 50 * sim.Microsecond
	for _, tc := range []struct {
		name string
		// setup builds the agent and starts its loop; the crash comes at
		// crashAt, after whatever it leaves pending.
		setup   func(loop *sim.Loop, hv *pollLog) *Agent
		crashAt sim.Time
	}{
		{
			// The first poll reacts with a resize: its completion is due
			// 200 µs + the 10 ms post-resize sleep later.
			name: "pending-resize",
			setup: func(loop *sim.Loop, hv *pollLog) *Agent {
				hv.busyFn = func(sim.Time) int { return 2 }
				a := defaultAgent(t, loop, hv, NewFixedBuffer(10, 2), nil)
				a.Start()
				return a
			},
			crashAt: sim.Millisecond,
		},
		{
			// The first window stalls for 5 ms before its first poll.
			name: "stall-wake",
			setup: func(loop *sim.Loop, hv *pollLog) *Agent {
				a := defaultAgent(t, loop, hv, NewNoHarvest(10), func(c *Config) {
					c.Faults = &oneStall{stall: 5 * sim.Millisecond}
				})
				a.Start()
				return a
			},
			crashAt: sim.Millisecond,
		},
		{
			// Nothing else is on the loop, so the first poll runs ahead to
			// the window edge at 25 ms.
			name: "run-ahead-poll",
			setup: func(loop *sim.Loop, hv *pollLog) *Agent {
				a := defaultAgent(t, loop, eventDrivenPollLog{hv}, NewNoHarvest(10), nil)
				a.startWindow()
				return a
			},
			crashAt: sim.Millisecond,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			loop := sim.NewLoop()
			hv := &pollLog{fakeHV: newFake(loop, 11)}
			a := tc.setup(loop, hv)
			loop.RunUntil(tc.crashAt)
			a.ForceCrash(sim.Millisecond, false)
			revived := tc.crashAt + sim.Millisecond
			loop.RunUntil(100 * sim.Millisecond)
			if a.Stats().Crashes != 1 {
				t.Fatalf("crashes %d, want 1", a.Stats().Crashes)
			}
			var live []sim.Time
			for _, at := range hv.at {
				if at >= revived {
					live = append(live, at)
				}
			}
			if len(live) < 2 {
				t.Fatalf("%d polls after the revival at %v", len(live), revived)
			}
			overlaps := 0
			for i := 1; i < len(live); i++ {
				if live[i]-live[i-1] < dt {
					overlaps++
				}
			}
			if overlaps > 0 {
				t.Fatalf("%d of %d polls after the revival came less than %v after the previous one: "+
					"a continuation from before the crash runs a second loop", overlaps, len(live), dt)
			}
		})
	}
}
