package core

import (
	"errors"
	"testing"

	"smartharvest/internal/sim"
)

var errFakeResize = errors.New("fake transient resize failure")

// fakeHV scripts the hypervisor side of the agent contract.
type fakeHV struct {
	loop      *sim.Loop
	total     int
	busyFn    func(now sim.Time) int
	primary   int
	resizeLat sim.Time
	waits     []int64 // dispatch waits (ns) queued for the next drain
	threshold sim.Time
	resizeLog []int
	// failResizes fails the next N non-no-op resize requests.
	failResizes int
	failures    int
}

func (f *fakeHV) TotalCores() int { return f.total }
func (f *fakeHV) BusyPrimaryCores() int {
	if f.busyFn == nil {
		return 0
	}
	b := f.busyFn(f.loop.Now())
	if b > f.primary {
		b = f.primary
	}
	return b
}
func (f *fakeHV) SetPrimaryCores(n int) (ResizeResult, error) {
	if n == f.primary {
		return ResizeResult{}, nil
	}
	if f.failResizes > 0 {
		f.failResizes--
		f.failures++
		return ResizeResult{}, errFakeResize
	}
	f.primary = n
	f.resizeLog = append(f.resizeLog, n)
	return ResizeResult{Applied: true, Latency: f.resizeLat}, nil
}
func (f *fakeHV) SetPrimaryWaitThreshold(t sim.Time) { f.threshold = t }

// DrainPrimaryWaitCounts counts the waits the test queued, against the
// threshold the agent set.
func (f *fakeHV) DrainPrimaryWaitCounts() (waits, over int) {
	for _, w := range f.waits {
		if w > int64(f.threshold) {
			over++
		}
	}
	waits = len(f.waits)
	f.waits = nil
	return waits, over
}

func newFake(loop *sim.Loop, total int) *fakeHV {
	return &fakeHV{loop: loop, total: total, primary: total, resizeLat: 200 * sim.Microsecond}
}

func defaultAgent(t *testing.T, loop *sim.Loop, hv Hypervisor, ctrl Controller, mut func(*Config)) *Agent {
	t.Helper()
	cfg := DefaultConfig(10, 1)
	cfg.LongTermSafeguard = false
	if mut != nil {
		mut(&cfg)
	}
	a, err := NewAgent(loop, hv, ctrl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNoHarvestNeverResizes(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	hv.busyFn = func(sim.Time) int { return 3 }
	a := defaultAgent(t, loop, hv, NewNoHarvest(10), nil)
	a.Start()
	loop.RunUntil(2 * sim.Second)
	if len(hv.resizeLog) > 1 { // at most the initial SetPrimaryCores(10)
		t.Fatalf("resizes %v", hv.resizeLog)
	}
	if hv.primary != 10 {
		t.Fatalf("primary %d", hv.primary)
	}
	if a.Stats().Windows < 70 {
		t.Fatalf("windows %d; 25ms windows over 2s should exceed 70", a.Stats().Windows)
	}
}

func TestFixedBufferTracksBusyReactively(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	level := 2
	hv.busyFn = func(sim.Time) int { return level }
	a := defaultAgent(t, loop, hv, NewFixedBuffer(10, 3), func(c *Config) {
		c.PostResizeSleep = 0
	})
	a.Start()
	loop.RunUntil(100 * sim.Millisecond)
	if hv.primary != 5 { // busy 2 + buffer 3
		t.Fatalf("primary %d, want 5", hv.primary)
	}
	level = 6
	loop.RunUntil(101 * sim.Millisecond)
	if hv.primary != 9 {
		t.Fatalf("primary %d after busy jump, want 9 within ~1ms", hv.primary)
	}
	level = 9 // busy+k would exceed alloc; clamp to 10
	loop.RunUntil(102 * sim.Millisecond)
	if hv.primary != 10 {
		t.Fatalf("primary %d, want clamped 10", hv.primary)
	}
}

func TestFixedBufferSleepLimitsReassignmentRate(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	toggle := 0
	// Busy flips every poll-ish; with a 10ms post-resize sleep the agent
	// cannot resize more than ~100 times per second.
	hv.busyFn = func(now sim.Time) int {
		toggle++
		return 1 + toggle%2*4
	}
	a := defaultAgent(t, loop, hv, NewFixedBuffer(10, 2), func(c *Config) {
		c.PostResizeSleep = 10 * sim.Millisecond
	})
	a.Start()
	loop.RunUntil(sim.Second)
	if a.Stats().Resizes > 110 {
		t.Fatalf("%d resizes in 1s despite 10ms sleep", a.Stats().Resizes)
	}
	if a.Stats().Resizes < 50 {
		t.Fatalf("only %d resizes; sleep should not stall the agent", a.Stats().Resizes)
	}
}

func TestShortTermSafeguardConservative(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	// Calm at 2 busy cores, then a spike to everything we have.
	hv.busyFn = func(now sim.Time) int {
		if now > 500*sim.Millisecond && now < 620*sim.Millisecond {
			return 10
		}
		return 2
	}
	ctrl := NewSmartHarvest(10, SmartHarvestOptions{})
	a := defaultAgent(t, loop, hv, ctrl, nil)
	a.Start()
	loop.RunUntil(450 * sim.Millisecond)
	if hv.primary > 6 {
		t.Fatalf("calm-phase primary %d; learner should have harvested", hv.primary)
	}
	before := a.Stats().Safeguards
	loop.RunUntil(615 * sim.Millisecond)
	if a.Stats().Safeguards <= before {
		t.Fatal("safeguard did not fire on the spike")
	}
	// The demand is capped by the assignment, so the conservative
	// safeguard ratchets up roughly one core per post-resize sleep;
	// after 115ms of sustained spike it should be near the allocation.
	if hv.primary < 9 {
		t.Fatalf("post-safeguard primary %d, want near alloc", hv.primary)
	}
	// After the spike, the learner shrinks again within ~1s.
	loop.RunUntil(3 * sim.Second)
	if hv.primary > 6 {
		t.Fatalf("primary %d long after spike; should re-harvest", hv.primary)
	}
}

func TestShortTermSafeguardAggressiveReturnsAll(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	hv.busyFn = func(now sim.Time) int {
		if now > 500*sim.Millisecond {
			return 10
		}
		return 1
	}
	ctrl := NewSmartHarvest(10, SmartHarvestOptions{Safeguard: AggressiveSafeguard})
	a := defaultAgent(t, loop, hv, ctrl, nil)
	a.Start()
	loop.RunUntil(600 * sim.Millisecond)
	if hv.primary != 10 {
		t.Fatalf("aggressive safeguard should return all cores, got %d", hv.primary)
	}
	if a.Stats().Safeguards == 0 {
		t.Fatal("safeguard never fired")
	}
}

func TestSmartHarvestLearnsSteadyWorkload(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	// Busy oscillates 1..4 within every window: peak 4.
	hv.busyFn = func(now sim.Time) int { return 1 + int(now/(5*sim.Millisecond))%4 }
	ctrl := NewSmartHarvest(10, SmartHarvestOptions{})
	a := defaultAgent(t, loop, hv, ctrl, nil)
	a.Start()
	loop.RunUntil(5 * sim.Second)
	// The learner should settle at or slightly above the true peak of 4,
	// harvesting the rest.
	if hv.primary < 4 || hv.primary > 7 {
		t.Fatalf("steady-state primary %d, want 4-7 (peak 4 + small margin)", hv.primary)
	}
	if ctrl.Predictor().Updates() < 50 {
		t.Fatalf("train updates %d", ctrl.Predictor().Updates())
	}
	// The learner may converge to exactly the true peak, in which case
	// usage touching the prediction empties the buffer and fires the
	// safeguard (the paper's equality trigger) — so the safeguard is not
	// rare on this adversarial sawtooth, but it must not dominate.
	if a.Stats().Safeguards > a.Stats().Windows*6/10 {
		t.Fatalf("safeguards %d of %d windows", a.Stats().Safeguards, a.Stats().Windows)
	}
}

func TestTargetNeverBelowBusyPlusOne(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	hv.busyFn = func(sim.Time) int { return 7 }
	ctrl := NewSmartHarvest(10, SmartHarvestOptions{})
	a := defaultAgent(t, loop, hv, ctrl, nil)
	a.Start()
	loop.RunUntil(3 * sim.Second)
	for _, r := range hv.resizeLog {
		if r < 8 {
			t.Fatalf("resize to %d violates busy+1 floor (busy 7)", r)
		}
	}
	_ = a
}

func TestLongTermSafeguardTripsAndRecovers(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	hv.busyFn = func(sim.Time) int { return 2 }
	// Inject bad dispatch waits continuously for the first 2.2 seconds.
	loop.NewTicker(0, 100*sim.Millisecond, func() {
		if loop.Now() < 2200*sim.Millisecond {
			for i := 0; i < 95; i++ {
				hv.waits = append(hv.waits, int64(5*sim.Microsecond))
			}
			for i := 0; i < 5; i++ { // 5% violations
				hv.waits = append(hv.waits, int64(300*sim.Microsecond))
			}
		} else {
			for i := 0; i < 100; i++ {
				hv.waits = append(hv.waits, int64(3*sim.Microsecond))
			}
		}
	})
	ctrl := NewSmartHarvest(10, SmartHarvestOptions{})
	a := defaultAgent(t, loop, hv, ctrl, func(c *Config) {
		c.LongTermSafeguard = true
		c.HarvestPause = 2 * sim.Second
	})
	a.Start()
	loop.RunUntil(1500 * sim.Millisecond)
	if a.Stats().QoSTrips != 1 {
		t.Fatalf("QoS trips %d, want 1 (two consecutive 500ms violations)", a.Stats().QoSTrips)
	}
	if !a.harvestingPaused() || hv.primary != 10 {
		t.Fatalf("harvesting not paused: primary %d", hv.primary)
	}
	// While paused the learner keeps training.
	trained := ctrl.Predictor().Updates()
	loop.RunUntil(2500 * sim.Millisecond)
	if ctrl.Predictor().Updates() <= trained {
		t.Fatal("learner stopped training during pause")
	}
	// After the pause and clean waits, harvesting resumes.
	loop.RunUntil(6 * sim.Second)
	if a.harvestingPaused() {
		t.Fatal("pause never ended")
	}
	if hv.primary > 6 {
		t.Fatalf("post-pause primary %d; harvesting should have resumed", hv.primary)
	}
}

func TestQoSRequiresConsecutiveWindows(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	hv.busyFn = func(sim.Time) int { return 2 }
	// Alternate one bad window, one good window: never two in a row.
	bad := false
	loop.NewTicker(0, 500*sim.Millisecond, func() {
		bad = !bad
		for i := 0; i < 100; i++ {
			w := int64(3 * sim.Microsecond)
			if bad && i < 10 {
				w = int64(400 * sim.Microsecond)
			}
			hv.waits = append(hv.waits, w)
		}
	})
	a := defaultAgent(t, loop, hv, NewSmartHarvest(10, SmartHarvestOptions{}), func(c *Config) {
		c.LongTermSafeguard = true
		c.QoSConsecutive = 2 // require two consecutive bad windows
	})
	a.Start()
	loop.RunUntil(10 * sim.Second)
	if a.Stats().QoSTrips != 0 {
		t.Fatalf("QoS tripped %d times on alternating windows", a.Stats().QoSTrips)
	}
}

// qosTripsUnder runs an agent with the long-term safeguard on for 2 s
// while every 100 ms the primaries report 100 dispatch waits, the first
// `over` of them at `long` and the rest at 3 µs. A nil ctrl is
// SmartHarvest.
func qosTripsUnder(t *testing.T, ctrl Controller, over int, long sim.Time) uint64 {
	t.Helper()
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	hv.busyFn = func(sim.Time) int { return 2 }
	loop.NewTicker(0, 100*sim.Millisecond, func() {
		for i := 0; i < 100; i++ {
			w := int64(3 * sim.Microsecond)
			if i < over {
				w = int64(long)
			}
			hv.waits = append(hv.waits, w)
		}
	})
	if ctrl == nil {
		ctrl = NewSmartHarvest(10, SmartHarvestOptions{})
	}
	a := defaultAgent(t, loop, hv, ctrl, func(c *Config) {
		c.LongTermSafeguard = true
	})
	a.Start()
	loop.RunUntil(2 * sim.Second)
	return a.Stats().QoSTrips
}

// TestLongTermSafeguardOnlyForSafeguardPolicies: with LongTermSafeguard
// on and every dispatch wait over QoSWaitThreshold, the QoS guard trips
// for each policy with Safeguards and never for the paper's fixed-buffer
// and no-harvest baselines, which run without safeguards.
func TestLongTermSafeguardOnlyForSafeguardPolicies(t *testing.T) {
	for _, ctrl := range []Controller{
		NewSmartHarvest(10, SmartHarvestOptions{}),
		NewPrevPeak(10, 1, false),
		NewEWMAController(10, 0.3, 1),
		NewFixedBuffer(10, 4),
		NewNoHarvest(10),
	} {
		trips := qosTripsUnder(t, ctrl, 100, DefaultConfig(10, 1).QoSWaitThreshold+1)
		if (trips > 0) != ctrl.Safeguards() {
			t.Errorf("%s (Safeguards %v): %d QoS trips", ctrl.Name(), ctrl.Safeguards(), trips)
		}
	}
}

// TestQoSWaitAtThresholdIsNotViolation pins the paper's "exceed 50 µs": a
// wait of exactly QoSWaitThreshold is not a violation.
func TestQoSWaitAtThresholdIsNotViolation(t *testing.T) {
	if n := qosTripsUnder(t, nil, 100, 50*sim.Microsecond); n != 0 {
		t.Fatalf("waits of exactly 50µs tripped the QoS guard %d times", n)
	}
	if qosTripsUnder(t, nil, 100, 50*sim.Microsecond+1) == 0 {
		t.Fatal("waits just above 50µs never tripped the QoS guard")
	}
}

// TestQoSExactlyOnePercentStrikes pins the paper's "≥ 1 %": a QoS window
// in which exactly 1 % of waits exceed the threshold strikes.
func TestQoSExactlyOnePercentStrikes(t *testing.T) {
	if qosTripsUnder(t, nil, 1, 300*sim.Microsecond) == 0 {
		t.Fatal("exactly 1% of waits over the threshold never tripped the QoS guard")
	}
	if n := qosTripsUnder(t, nil, 0, 300*sim.Microsecond); n != 0 {
		t.Fatalf("clean waits tripped the QoS guard %d times", n)
	}
}

func TestPrevPeakFollowsLastWindow(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	hv.busyFn = func(now sim.Time) int {
		if now < 500*sim.Millisecond {
			return 5
		}
		return 1
	}
	a := defaultAgent(t, loop, hv, NewPrevPeak(10, 1, false), nil)
	a.Start()
	loop.RunUntil(400 * sim.Millisecond)
	if hv.primary != 5 && hv.primary != 6 {
		t.Fatalf("prevpeak primary %d during level-5 phase", hv.primary)
	}
	loop.RunUntil(sim.Second)
	if hv.primary > 2 {
		t.Fatalf("prevpeak primary %d after drop to 1", hv.primary)
	}
}

func TestPrevPeak10UsesLongHistoryAndStepwiseSafeguard(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	hv.busyFn = func(now sim.Time) int {
		// A sustained tall phase, then quiet: PrevPeak10 should keep
		// the tall allocation for ~10 windows after the phase ends
		// (stale history — the paper's Figure 7 criticism).
		if now >= 100*sim.Millisecond && now < 250*sim.Millisecond {
			return 6
		}
		return 1
	}
	a := defaultAgent(t, loop, hv, NewPrevPeak(10, 10, true), nil)
	a.Start()
	// During the tall phase the stepwise safeguard ratchets up to ~7.
	loop.RunUntil(240 * sim.Millisecond)
	if hv.primary < 6 {
		t.Fatalf("prevpeak10 primary %d during tall phase", hv.primary)
	}
	// Shortly after the phase ends the stale 10-window history still
	// holds the allocation high.
	loop.RunUntil(400 * sim.Millisecond)
	if hv.primary < 6 {
		t.Fatalf("prevpeak10 primary %d right after tall phase; history should hold", hv.primary)
	}
	// Long after, the tall windows age out and it finally shrinks.
	loop.RunUntil(900 * sim.Millisecond)
	if hv.primary > 2 {
		t.Fatalf("prevpeak10 primary %d long after tall phase", hv.primary)
	}
}

func TestEWMAControllerLags(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	hv.busyFn = func(now sim.Time) int {
		if now > sim.Second && now < 1100*sim.Millisecond {
			return 8 // a sustained burst
		}
		return 2
	}
	ctrl := NewEWMAController(10, 0.2, 1)
	a := defaultAgent(t, loop, hv, ctrl, nil)
	a.Start()
	loop.RunUntil(990 * sim.Millisecond)
	calm := hv.primary
	if calm > 4 {
		t.Fatalf("ewma calm primary %d", calm)
	}
	// The EWMA prediction cannot anticipate the burst; the safeguard is
	// what reacts, ratcheting the allocation up during the burst.
	loop.RunUntil(1095 * sim.Millisecond)
	if a.Stats().Safeguards == 0 {
		t.Fatal("safeguard never fired; EWMA should have been caught out")
	}
	if hv.primary < calm+3 {
		t.Fatalf("primary %d near burst end, want well above calm %d", hv.primary, calm)
	}
}

func TestAgentValidation(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	bad := []func() Config{
		func() Config { c := DefaultConfig(0, 1); return c },
		func() Config { c := DefaultConfig(10, -1); return c },
		func() Config { c := DefaultConfig(10, 1); c.PollInterval = 0; return c },
		func() Config { c := DefaultConfig(10, 1); c.PollInterval = c.Window * 2; return c },
		func() Config { c := DefaultConfig(10, 1); c.QoSViolationFrac = 0; return c },
		// A window longer than the 1 s peak history.
		func() Config { c := DefaultConfig(10, 1); c.Window = 2 * sim.Second; return c },
		func() Config { c := DefaultConfig(20, 1); return c }, // exceeds total
		// A zero ResiliencePolicy is refused, not read as the default.
		func() Config { c := DefaultConfig(10, 1); c.Resilience = ResiliencePolicy{}; return c },
	}
	for i, mk := range bad {
		if _, err := NewAgent(loop, hv, NewNoHarvest(10), mk()); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

func TestAgentStartTwicePanics(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	hv.busyFn = func(sim.Time) int { return 0 }
	a := defaultAgent(t, loop, hv, NewNoHarvest(10), nil)
	a.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	a.Start()
}

func TestControllerConstructorsValidate(t *testing.T) {
	for name, f := range map[string]func(){
		"smartharvest": func() { NewSmartHarvest(0, SmartHarvestOptions{}) },
		"fixedbuffer":  func() { NewFixedBuffer(10, 11) },
		"fixedneg":     func() { NewFixedBuffer(10, -1) },
		"prevpeak":     func() { NewPrevPeak(10, 0, false) },
		"noharvest":    func() { NewNoHarvest(0) },
		"ewma":         func() { NewEWMAController(0, 0.5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestControllerNames(t *testing.T) {
	cases := map[string]Controller{
		"smartharvest":  NewSmartHarvest(10, SmartHarvestOptions{}),
		"fixedbuffer-4": NewFixedBuffer(10, 4),
		"prevpeak":      NewPrevPeak(10, 1, false),
		"prevpeak10":    NewPrevPeak(10, 10, true),
		"noharvest":     NewNoHarvest(10),
		"ewma":          NewEWMAController(10, 0.5, 1),
	}
	for want, c := range cases {
		if c.Name() != want {
			t.Errorf("name %q, want %q", c.Name(), want)
		}
	}
	if ConservativeSafeguard.String() != "conservative" || AggressiveSafeguard.String() != "aggressive" {
		t.Error("safeguard mode names")
	}
}
