package rtagent

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"smartharvest/internal/core"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// fakeClock advances only through Sleep. It cancels the run instead of
// sleeping past limit, and the first Sleep starting at or after jumpAt
// oversleeps by jump (a suspended process, a long GC pause).
type fakeClock struct {
	elapsed time.Duration
	limit   time.Duration
	cancel  context.CancelFunc
	jumpAt  time.Duration
	jump    time.Duration
	sleeps  int
}

func (c *fakeClock) Now() time.Time { return time.Unix(0, 0).Add(c.elapsed) }
func (c *fakeClock) Sleep(d time.Duration) {
	c.sleeps++
	if c.elapsed+d > c.limit {
		c.cancel()
		return
	}
	if c.jump > 0 && c.elapsed >= c.jumpAt {
		d += c.jump
		c.jump = 0
	}
	c.elapsed += d
}

// scriptedHV is a hypervisor whose busy level, dispatch waits and resize
// failures are a pure function of loop time, so two runs of the same
// script are comparable byte for byte.
type scriptedHV struct {
	loop    *sim.Loop
	primary int
	busy    func(sim.Time) int
	fails   int // the next fails resizes error out
}

func (h *scriptedHV) TotalCores() int { return 11 }
func (h *scriptedHV) BusyPrimaryCores() int {
	return min(h.busy(h.loop.Now()), h.primary)
}
func (h *scriptedHV) SetPrimaryCores(n int) (core.ResizeResult, error) {
	if n == h.primary {
		return core.ResizeResult{}, nil
	}
	if h.loop.Now() > 3*sim.Second && h.fails > 0 {
		h.fails--
		return core.ResizeResult{}, errors.New("scripted resize failure")
	}
	h.primary = n
	return core.ResizeResult{Applied: true, Latency: 200 * sim.Microsecond}, nil
}
func (h *scriptedHV) DrainPrimaryWaits() []int64 {
	if now := h.loop.Now(); now > 4*sim.Second && now < 5*sim.Second {
		return []int64{int64(sim.Millisecond)} // starved: trips the QoS guard
	}
	return []int64{1}
}

// startAgent wires the host-path agent (1 ms polls) on a fresh loop.
func startAgent(t *testing.T, ctrl core.Controller, o obs.Observer, busy func(sim.Time) int) (*sim.Loop, *core.Agent) {
	t.Helper()
	loop := sim.NewLoop()
	cfg := core.DefaultConfig(10, 1)
	cfg.PollInterval = sim.Millisecond
	cfg.Observer = o
	hv := &scriptedHV{loop: loop, primary: 11, busy: busy, fails: 5}
	a, err := core.NewAgent(loop, hv, ctrl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	return loop, a
}

// A pacer that is never late must be invisible: the paced run's trace is
// the simulated run's trace, through harvesting, a spike (short-term
// safeguard), failed resizes (retry ladder) and a QoS trip.
func TestPacedRunMatchesRunUntil(t *testing.T) {
	const end = 6 * time.Second
	busy := func(now sim.Time) int {
		if now > 2*sim.Second && now < 2*sim.Second+200*sim.Millisecond {
			return 9
		}
		return 2
	}
	trace := func(run func(*sim.Loop)) []byte {
		var buf bytes.Buffer
		j := obs.NewJSONL(&buf)
		loop, _ := startAgent(t, core.NewSmartHarvest(10, core.SmartHarvestOptions{}), j, busy)
		run(loop)
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := trace(func(l *sim.Loop) { l.RunUntil(sim.Duration(end)) })
	got := trace(func(l *sim.Loop) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		Run(ctx, l, &fakeClock{limit: end, cancel: cancel})
	})
	for _, ev := range []string{`"ev":"safeguard"`, `"ev":"retry"`, `"ev":"qos-trip"`} {
		if !bytes.Contains(want, []byte(ev)) {
			t.Errorf("script never produced %s; the comparison is too weak", ev)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("paced trace (%d bytes) differs from RunUntil trace (%d bytes)", len(got), len(want))
	}
}

// A 100 ms oversleep must cost one late poll that closes the overdue
// window — not a hundred catch-up polls replaying time that is gone.
func TestLateWakeupYieldsOneLatePoll(t *testing.T) {
	const jumpAt, jump = 210 * time.Millisecond, 100 * time.Millisecond
	ring := obs.NewRing(4096)
	loop, _ := startAgent(t, core.NewNoHarvest(10), ring, func(sim.Time) int { return 2 })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	Run(ctx, loop, &fakeClock{limit: 400 * time.Millisecond, cancel: cancel, jumpAt: jumpAt, jump: jump})

	// The Sleep(1ms) that began at 210 ms returned at 311 ms.
	from, late := sim.Duration(jumpAt), sim.Duration(jumpAt+time.Millisecond+jump)
	polls, windows := 0, 0
	for _, r := range ring.Records() {
		switch {
		case r.Kind == obs.KindPollSample && r.PollSample.At > from && r.PollSample.At <= late:
			polls++
			if r.PollSample.At != late {
				t.Errorf("poll at %v inside the oversleep", r.PollSample.At)
			}
		case r.Kind == obs.KindWindowEnd && r.WindowEnd.At > from && r.WindowEnd.At <= late:
			windows++
			if r.WindowEnd.At != late {
				t.Errorf("window end at %v inside the oversleep", r.WindowEnd.At)
			}
		}
	}
	if polls != 1 || windows != 1 {
		t.Fatalf("oversleep produced %d polls and %d window ends, want 1 and 1", polls, windows)
	}
	// 210 on-time polls, the late one, then 1 ms polls again to 400 ms.
	if got, want := ring.Total(obs.KindPollSample), uint64(210+1+89); got != want {
		t.Fatalf("%d polls overall, want %d", got, want)
	}
}

// The host path never runs its poll ahead, observer or not: a hypervisor
// that reads the outside world does not carry core.EventDrivenBusy, so the
// paced loop fires every 1 ms poll even across a steady, event-free second.
func TestPacedRunSkipsNoPoll(t *testing.T) {
	loop, agent := startAgent(t, core.NewNoHarvest(10), nil, func(sim.Time) int { return 2 })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	Run(ctx, loop, &fakeClock{limit: time.Second, cancel: cancel})
	if polls, skipped := agent.Polls(), agent.PollsSkipped(); polls != 1000 || skipped != 0 {
		t.Fatalf("%d polls fired and %d skipped over a paced second of 1 ms polls, want 1000 and 0", polls, skipped)
	}
}

func TestRunStopsOnCancelAndOnEmptyLoop(t *testing.T) {
	loop := sim.NewLoop()
	fired := false
	loop.At(sim.Second, func() { fired = true })
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// limit 0: the first Sleep cancels instead of sleeping.
	clk := &fakeClock{cancel: cancel}
	Run(ctx, loop, clk)
	if fired || clk.sleeps != 1 {
		t.Fatalf("after cancel: fired=%v sleeps=%d, want one pending-event sleep and no event", fired, clk.sleeps)
	}

	Run(context.Background(), sim.NewLoop(), clk) // nothing pending: returns
	if clk.sleeps != 1 {
		t.Fatalf("empty loop slept")
	}
}
