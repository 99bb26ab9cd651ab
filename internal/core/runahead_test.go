package core

import (
	"reflect"
	"testing"

	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// Poll run-ahead must be invisible: a hypervisor that carries the
// EventDrivenBusy marker and the same hypervisor without it (every poll a
// real event — the reference) have to hand the controller the same windows
// and issue the same hypercalls at the same instants, whatever the loop
// does in between.

// scriptHV is fakeHV with a busy level that is plain state, changed only by
// loop events the script schedules, and a log of every hypercall.
type scriptHV struct {
	*fakeHV
	level int
	calls []resizeCall
}

type resizeCall struct {
	At sim.Time
	N  int
}

func (h *scriptHV) SetPrimaryCores(n int) (ResizeResult, error) {
	h.calls = append(h.calls, resizeCall{h.loop.Now(), n})
	return h.fakeHV.SetPrimaryCores(n)
}

// markedHV adds the marker; nothing else differs.
type markedHV struct{ *scriptHV }

func (markedHV) BusyChangesOnlyInLoopEvents() {}

// windowLog records what the controller is shown and forwards SetAlloc.
type windowLog struct {
	Controller
	windows []Window
}

func (l *windowLog) OnWindowEnd(w Window) int {
	w.Samples = append([]int(nil), w.Samples...)
	l.windows = append(l.windows, w)
	return l.Controller.OnWindowEnd(w)
}

func (l *windowLog) SetAlloc(n int) { l.Controller.(AllocAware).SetAlloc(n) }

// script is one scenario: a policy, config tweaks, and the loop events that
// drive the hypervisor and the agent.
type script struct {
	ctrl   func() Controller
	config func(*Config)
	events func(loop *sim.Loop, hv *scriptHV, a *Agent)
	// bare starts the first window without Agent.Start, so not even the
	// QoS ticker is on the loop.
	bare bool
	end  sim.Time
}

type outcome struct {
	windows        []Window
	calls          []resizeCall
	polls, skipped uint64
	agent          *Agent
}

func (s script) run(t *testing.T, marked bool) outcome {
	t.Helper()
	loop := sim.NewLoop()
	hv := &scriptHV{fakeHV: newFake(loop, 11), level: 2}
	hv.busyFn = func(sim.Time) int { return hv.level }
	var h Hypervisor = hv
	if marked {
		h = markedHV{hv}
	}
	log := &windowLog{Controller: s.ctrl()}
	a := defaultAgent(t, loop, h, log, s.config)
	if s.events != nil {
		s.events(loop, hv, a)
	}
	if s.bare {
		a.startWindow()
	} else {
		a.Start()
	}
	loop.RunUntil(s.end)
	return outcome{log.windows, hv.calls, a.Polls(), a.PollsSkipped(), a}
}

// check runs the script both ways and demands identical behaviour, that the
// marked run really skipped polls, and that no poll instant went missing.
func (s script) check(t *testing.T) (ref, got outcome) {
	t.Helper()
	ref, got = s.run(t, false), s.run(t, true)
	if ref.skipped != 0 {
		t.Fatalf("reference run skipped %d polls; it has no marker", ref.skipped)
	}
	if got.skipped == 0 {
		t.Fatalf("marked run skipped nothing; the script does not exercise run-ahead")
	}
	if got.polls+got.skipped != ref.polls {
		t.Errorf("marked run accounts for %d+%d poll instants, reference fired %d",
			got.polls, got.skipped, ref.polls)
	}
	if len(ref.windows) == 0 {
		t.Fatal("reference run closed no window")
	}
	if len(got.windows) != len(ref.windows) {
		t.Fatalf("%d windows, reference %d", len(got.windows), len(ref.windows))
	}
	for i := range ref.windows {
		if !reflect.DeepEqual(got.windows[i], ref.windows[i]) {
			g, r := got.windows[i], ref.windows[i]
			t.Fatalf("window %d differs:\n got At=%v n=%d peak=%d busy=%d safeguard=%v target=%d\n ref At=%v n=%d peak=%d busy=%d safeguard=%v target=%d",
				i, g.At, len(g.Samples), g.Peak, g.Busy, g.Safeguard, g.CurrentTarget,
				r.At, len(r.Samples), r.Peak, r.Busy, r.Safeguard, r.CurrentTarget)
		}
	}
	if !reflect.DeepEqual(got.calls, ref.calls) {
		t.Fatalf("hypercall log differs:\n got %v\n ref %v", got.calls, ref.calls)
	}
	return ref, got
}

func prevPeak() Controller { return NewPrevPeak(10, 1, false) }

func safeguards(ws []Window) (n int) {
	for _, w := range ws {
		if w.Safeguard {
			n++
		}
	}
	return n
}

// (a) A busy change at exactly a poll instant, in both tie orders. With no
// resize latency the poll grid sits on multiples of 50 µs.
func TestRunAheadBusyChangeOnPollInstant(t *testing.T) {
	const at = 60 * sim.Millisecond // a poll instant, mid-window
	const dt = 50 * sim.Microsecond
	jump := func(hv *scriptHV, to int) func() { return func() { hv.level = to } }
	orders := map[string]func(loop *sim.Loop, hv *scriptHV){
		// Scheduled before the agent starts: the change precedes the poll
		// of its instant, which reads the new level.
		"change first": func(loop *sim.Loop, hv *scriptHV) {
			loop.At(at, jump(hv, 7))
		},
		// Scheduled after the previous poll fired: the poll of that
		// instant is older, fires first and reads the old level.
		"poll first": func(loop *sim.Loop, hv *scriptHV) {
			loop.At(at-dt/2, func() { loop.At(at, jump(hv, 7)) })
		},
		// Scheduled at the previous poll's own instant, ahead of it.
		"change first, set up on the previous instant": func(loop *sim.Loop, hv *scriptHV) {
			loop.At(at-dt, func() { loop.At(at, jump(hv, 7)) })
		},
		// Scheduled from deep inside an event-free gap, many instants early.
		"change first, set up mid-gap": func(loop *sim.Loop, hv *scriptHV) {
			loop.At(at-3*sim.Millisecond-7*sim.Microsecond, func() { loop.At(at, jump(hv, 7)) })
		},
	}
	for name, schedule := range orders {
		t.Run(name, func(t *testing.T) {
			ref, _ := script{
				ctrl:   prevPeak,
				config: func(c *Config) { c.PostResizeSleep = 0 },
				events: func(loop *sim.Loop, hv *scriptHV, _ *Agent) {
					hv.resizeLat = 0
					schedule(loop, hv)
					loop.At(140*sim.Millisecond, jump(hv, 1))
				},
				end: 200 * sim.Millisecond,
			}.check(t)
			if safeguards(ref.windows) == 0 {
				t.Fatal("the jump never tripped the short-term safeguard")
			}
		})
	}
}

// (b) A change that reaches the target between two poll instants, inside a
// gap the marked run is skipping: the safeguard has to trip at the same
// poll instant, with the same partial window.
func TestRunAheadSafeguardMidGap(t *testing.T) {
	ref, _ := script{
		ctrl: prevPeak,
		events: func(loop *sim.Loop, hv *scriptHV, _ *Agent) {
			for i, at := range []sim.Time{61_013_370, 148_000_001, 301_999_999} {
				level := 5 + i
				loop.At(at, func() { hv.level = level })
				loop.At(at+40*sim.Millisecond, func() { hv.level = 1 })
			}
		},
		end: 400 * sim.Millisecond,
	}.check(t)
	if n := safeguards(ref.windows); n < 3 {
		t.Fatalf("%d safeguard windows, want one a jump", n)
	}
}

// (c) FixedBuffer reacts at poll granularity, and its reaction is clamped
// by a long-term-safeguard pause that runs out in the middle of a window:
// the first poll after the expiry has to be the one that resizes.
func TestRunAheadFixedBufferAndPauseExpiry(t *testing.T) {
	const pause = 137*sim.Millisecond + 330*sim.Microsecond + 7
	ref, got := script{
		ctrl: func() Controller { return NewFixedBuffer(10, 3) },
		config: func(c *Config) {
			c.LongTermSafeguard = true
			c.HarvestPause = pause
		},
		events: func(loop *sim.Loop, hv *scriptHV, _ *Agent) {
			for i, at := range []sim.Time{20_000_000, 73_456_789, 410_000_050, 700_000_000, 820_020_000} {
				level := []int{4, 1, 6, 3, 9}[i]
				loop.At(at, func() { hv.level = level })
			}
			// Starved dispatch waits, drained by the QoS check at 500 ms.
			loop.At(499*sim.Millisecond, func() {
				hv.waits = []int64{int64(sim.Millisecond), int64(sim.Millisecond)}
			})
		},
		end: sim.Second,
	}.check(t)
	if ref.agent.QoSTrips() != 1 || got.agent.QoSTrips() != 1 {
		t.Fatalf("QoS trips %d/%d, want 1 each", ref.agent.QoSTrips(), got.agent.QoSTrips())
	}
	// Paused at 500 ms with busy 6: the trip hands back all 10 cores, and
	// the reaction to the expiry is the first resize after it.
	expiry := 500*sim.Millisecond + pause
	var after []resizeCall
	for _, c := range ref.calls {
		if c.At > 500*sim.Millisecond {
			after = append(after, c)
		}
	}
	if len(after) == 0 || after[0].At < expiry || after[0].At >= expiry+50*sim.Microsecond || after[0].N != 9 {
		t.Fatalf("resizes after the trip %v, want the first within one poll of %v to 9 cores", after, expiry)
	}
}

// (d) Allocation changes and a whole-server crash arrive from loop events
// in the middle of windows.
func TestRunAheadAllocChangeAndCrash(t *testing.T) {
	ref, got := script{
		ctrl: prevPeak,
		events: func(loop *sim.Loop, hv *scriptHV, a *Agent) {
			setAlloc := func(n int) func() {
				return func() {
					if err := a.SetPrimaryAlloc(n); err != nil {
						t.Error(err)
					}
				}
			}
			loop.At(30_000_000, func() { hv.level = 8 })
			loop.At(90_012_300, setAlloc(6)) // busy 8 now exceeds the allocation
			loop.At(160_007_000, func() { a.ForceCrash(40*sim.Millisecond+13, false) })
			loop.At(180_000_000, func() { hv.level = 3 }) // while dead
			loop.At(260_000_025, setAlloc(10))
			loop.At(262_000_000, func() { hv.level = 9 })
			loop.At(330_000_000, func() { a.ForceCrash(5*sim.Millisecond, true) })
		},
		end: 450 * sim.Millisecond,
	}.check(t)
	if ref.agent.Crashes() != 2 || got.agent.Crashes() != 2 {
		t.Fatalf("crashes %d/%d, want 2 each", ref.agent.Crashes(), got.agent.Crashes())
	}
	clamped := false
	for _, w := range ref.windows {
		if w.At > 91*sim.Millisecond && w.At < 160*sim.Millisecond && w.Peak == 6 {
			clamped = true
		}
	}
	if !clamped {
		t.Fatal("no window shows the busy reading clamped to the shrunk allocation")
	}
}

// (e) Nothing else on the loop at all: run-ahead is bounded by the window
// edge alone, two real polls a window (the first, which runs ahead, and
// the one on the edge).
func TestRunAheadEmptyQueue(t *testing.T) {
	ref, got := script{
		ctrl: func() Controller { return NewNoHarvest(10) },
		bare: true,
		end:  250 * sim.Millisecond,
	}.check(t)
	if w := uint64(len(ref.windows)); w != 10 || got.polls != 2*w || got.skipped != 498*w {
		t.Fatalf("%d windows, %d polls, %d skipped; want 10, 20, 4980", w, got.polls, got.skipped)
	}
}

// An observer is owed every PollSample, so attaching one keeps every poll
// real even on a marked hypervisor.
func TestObserverDisablesRunAhead(t *testing.T) {
	s := script{
		ctrl:   prevPeak,
		config: func(c *Config) { c.Observer = obs.NopObserver{} },
		end:    100 * sim.Millisecond,
	}
	if out := s.run(t, true); out.skipped != 0 || out.polls == 0 {
		t.Fatalf("observed marked run fired %d polls and skipped %d, want none skipped", out.polls, out.skipped)
	}
}
