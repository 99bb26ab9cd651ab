package core

import (
	"testing"

	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

func TestAgentEmitsWindowAndPollEvents(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	hv.busyFn = func(sim.Time) int { return 2 }
	ring := obs.NewRing(1 << 16)
	a := defaultAgent(t, loop, hv, NewSmartHarvest(10, SmartHarvestOptions{}), func(c *Config) {
		c.Observer = ring
	})
	a.Start()
	loop.RunUntil(2 * sim.Second)

	if got, want := ring.Total(obs.KindWindowEnd), a.Windows(); got != want {
		t.Errorf("WindowEnd events %d, agent windows %d", got, want)
	}
	if got, want := ring.Total(obs.KindSafeguardTrip), a.SafeguardInvocations(); got != want {
		t.Errorf("SafeguardTrip events %d, agent safeguards %d", got, want)
	}
	if ring.Total(obs.KindPollSample) == 0 {
		t.Error("no PollSample events")
	}

	// With a constant busy level every window's features are degenerate.
	var seq uint64
	for _, rec := range ring.Records() {
		if rec.Kind != obs.KindWindowEnd {
			continue
		}
		w := rec.WindowEnd
		if w.Seq <= seq {
			t.Fatalf("window seq not increasing: %d after %d", w.Seq, seq)
		}
		seq = w.Seq
		if w.Samples == 0 {
			t.Fatalf("window %d has no samples", w.Seq)
		}
		f := w.Features
		if f.Min != 2 || f.Max != 2 || f.Avg != 2 || f.Std != 0 || f.Median != 2 {
			t.Fatalf("window %d features %+v, want all-2/std-0", w.Seq, f)
		}
		if w.Target < w.Busy+1 && w.Clamp == obs.ClampNone {
			t.Fatalf("window %d target %d below busy floor without clamp reason", w.Seq, w.Target)
		}
	}
	if seq == 0 {
		t.Fatal("no WindowEnd records examined")
	}
}

// starvedHV reports every dispatch wait as far above threshold, forcing
// the long-term safeguard to trip at the first QoS check.
type starvedHV struct{ *fakeHV }

func (h starvedHV) DrainPrimaryWaits() []int64 {
	return []int64{int64(sim.Millisecond), int64(sim.Millisecond)}
}

func TestAgentEmitsQoSTripAndResume(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	hv.busyFn = func(sim.Time) int { return 2 }
	ring := obs.NewRing(1 << 16)
	cfg := DefaultConfig(10, 1)
	cfg.Observer = ring
	cfg.HarvestPause = 2 * sim.Second
	agent, err := NewAgent(loop, starvedHV{hv}, NewSmartHarvest(10, SmartHarvestOptions{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	agent.Start()
	loop.RunUntil(6 * sim.Second)

	if agent.QoSTrips() == 0 {
		t.Fatal("starved waits did not trip the long-term safeguard")
	}
	if got, want := ring.Total(obs.KindQoSTrip), agent.QoSTrips(); got != want {
		t.Errorf("QoSTrip events %d, agent trips %d", got, want)
	}
	if ring.Total(obs.KindQoSResume) == 0 {
		t.Error("no QoSResume after a 2s pause within a 6s run")
	}
	for _, rec := range ring.Records() {
		if rec.Kind == obs.KindQoSTrip {
			e := rec.QoSTrip
			if e.Frac != 1 || e.Waits != 2 || e.PauseUntil != e.At+2*sim.Second {
				t.Fatalf("QoSTrip payload wrong: %+v", e)
			}
		}
	}
}

func TestSafeguardModeRoundTrip(t *testing.T) {
	for _, m := range []SafeguardMode{ConservativeSafeguard, AggressiveSafeguard} {
		got, err := ParseSafeguardMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseSafeguardMode(%q) = %v, %v", m.String(), got, err)
		}
		text, err := m.MarshalText()
		if err != nil || string(text) != m.String() {
			t.Errorf("MarshalText(%v) = %q, %v", m, text, err)
		}
		var back SafeguardMode
		if err := back.UnmarshalText(text); err != nil || back != m {
			t.Errorf("UnmarshalText(%q) = %v, %v", text, back, err)
		}
	}
	if _, err := ParseSafeguardMode("nope"); err == nil {
		t.Error("ParseSafeguardMode accepted junk")
	}
	if _, err := SafeguardMode(9).MarshalText(); err == nil {
		t.Error("MarshalText accepted an invalid mode")
	}
}

// benchAgent drives a steady agent loop for allocation measurements.
func benchAgent(b *testing.B, o obs.Observer) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	hv.busyFn = func(sim.Time) int { return 2 }
	cfg := DefaultConfig(10, 1)
	cfg.LongTermSafeguard = false
	cfg.Observer = o
	a, err := NewAgent(loop, hv, NewNoHarvest(10), cfg)
	if err != nil {
		b.Fatal(err)
	}
	a.Start()
	loop.RunUntil(sim.Second) // reach steady state (buffers at capacity)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loop.Step()
	}
}

// BenchmarkAgentLoopNoObserver is the observability tax meter: with no
// observer attached the agent+sim hot loop must stay allocation-free
// (guarded by TestAgentLoopNoObserverZeroAllocs and CI).
func BenchmarkAgentLoopNoObserver(b *testing.B) { benchAgent(b, nil) }

// BenchmarkAgentLoopRingObserver is the enabled-path comparison point.
func BenchmarkAgentLoopRingObserver(b *testing.B) { benchAgent(b, obs.NewRing(4096)) }

func TestAgentLoopNoObserverZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed")
	}
	// Not AllocsPerOp: it is an integer division, and one 16 B method
	// value per poll over ~1.06 events per poll read as 0. B/op resolves
	// 16x finer; the total bounds what even that would round away.
	res := testing.Benchmark(BenchmarkAgentLoopNoObserver)
	if b := res.AllocedBytesPerOp(); b != 0 || res.MemAllocs*1000 > uint64(res.N) {
		t.Fatalf("disabled-observer agent loop allocates %d B/op (%d allocs over %d events), want 0",
			b, res.MemAllocs, res.N)
	}
}

// starvedOnceHV reports starved waits only on the first drain, so the
// long-term safeguard trips exactly once and the pause then runs out.
type starvedOnceHV struct {
	*fakeHV
	drained bool
}

func (h *starvedOnceHV) DrainPrimaryWaits() []int64 {
	if h.drained {
		return nil
	}
	h.drained = true
	return []int64{int64(sim.Millisecond), int64(sim.Millisecond)}
}

// TestPauseExpiresOnWindowBoundary pins the boundary semantics of the
// long-term safeguard: HarvestingPaused is `now < pausedUntil`, so a
// window decision made at exactly pausedUntil is already live. The trip
// lands at 500ms and HarvestPause is 2s, putting pausedUntil at 2.5s —
// an exact multiple of the 25ms learning window.
func TestPauseExpiresOnWindowBoundary(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	hv.busyFn = func(sim.Time) int { return 2 }
	hv.resizeLat = 0 // keep the window grid on exact 25ms multiples
	ring := obs.NewRing(1 << 16)
	cfg := DefaultConfig(10, 1)
	cfg.Observer = ring
	cfg.PostResizeSleep = 0
	cfg.QoSConsecutive = 1
	cfg.HarvestPause = 2 * sim.Second
	agent, err := NewAgent(loop, &starvedOnceHV{fakeHV: hv}, NewSmartHarvest(10, SmartHarvestOptions{}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	agent.Start()
	loop.RunUntil(4 * sim.Second)

	if got := agent.QoSTrips(); got != 1 {
		t.Fatalf("QoS trips %d, want exactly 1", got)
	}
	const pausedUntil = 2500 * sim.Millisecond
	var sawLast, sawFirst, sawResume bool
	for _, rec := range ring.Records() {
		switch rec.Kind {
		case obs.KindQoSTrip:
			if e := rec.QoSTrip; e.PauseUntil != pausedUntil {
				t.Fatalf("pause until %v, want %v", e.PauseUntil, pausedUntil)
			}
		case obs.KindQoSResume:
			sawResume = true
			// The resume is observed by the first QoS check at/after
			// expiry; with a 500ms QoS window that is exactly 2.5s.
			if rec.QoSResume.At != pausedUntil {
				t.Fatalf("QoSResume at %v, want %v", rec.QoSResume.At, pausedUntil)
			}
		case obs.KindWindowEnd:
			w := rec.WindowEnd
			switch w.At {
			case pausedUntil - 25*sim.Millisecond:
				// Last decision inside the pause: clamped to the alloc.
				sawLast = true
				if w.Clamp != obs.ClampPaused || w.Target != 10 {
					t.Fatalf("window at %v: clamp %v target %d, want paused/10", w.At, w.Clamp, w.Target)
				}
			case pausedUntil:
				// Decision at exactly pausedUntil: harvesting is live again.
				sawFirst = true
				if w.Clamp == obs.ClampPaused {
					t.Fatalf("window at exactly pausedUntil still clamped paused")
				}
			}
		}
	}
	if !sawLast || !sawFirst || !sawResume {
		t.Fatalf("missing boundary events: last=%v first=%v resume=%v", sawLast, sawFirst, sawResume)
	}
}
