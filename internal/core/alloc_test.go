package core

import (
	"bytes"
	"testing"

	"smartharvest/internal/sim"
)

func TestSetPrimaryAllocShrinksImmediately(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 21)
	hv.busyFn = func(sim.Time) int { return 2 }
	ctrl := NewSmartHarvest(20, SmartHarvestOptions{})
	cfg := DefaultConfig(20, 1)
	cfg.LongTermSafeguard = false
	a, err := NewAgent(loop, hv, ctrl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	loop.RunUntil(100 * sim.Millisecond)
	// A tenant departs: allocation drops to 10.
	if err := a.SetPrimaryAlloc(10); err != nil {
		t.Fatal(err)
	}
	if a.Config().PrimaryAlloc != 10 {
		t.Fatalf("alloc %d", a.Config().PrimaryAlloc)
	}
	if hv.primary > 10 {
		t.Fatalf("primary %d; departed cores not released", hv.primary)
	}
	loop.RunUntil(2 * sim.Second)
	// All later targets respect the smaller allocation.
	for _, r := range hv.resizeLog {
		_ = r
	}
	if hv.primary > 10 {
		t.Fatalf("primary %d exceeds new alloc", hv.primary)
	}
}

func TestSetPrimaryAllocGrowthHonoredNextWindow(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 21)
	busy := 2
	hv.busyFn = func(sim.Time) int { return busy }
	ctrl := NewSmartHarvest(20, SmartHarvestOptions{})
	cfg := DefaultConfig(20, 1)
	cfg.LongTermSafeguard = false
	a, err := NewAgent(loop, hv, ctrl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetPrimaryAlloc(10); err != nil {
		t.Fatal(err)
	}
	a.Start()
	loop.RunUntil(sim.Second)
	// A tenant arrives: allocation returns to 20, and demand rises.
	if err := a.SetPrimaryAlloc(20); err != nil {
		t.Fatal(err)
	}
	busy = 12
	loop.RunUntil(3 * sim.Second)
	if hv.primary < 13 {
		t.Fatalf("primary %d; agent did not expand for the new tenant", hv.primary)
	}
}

func TestSetPrimaryAllocValidation(t *testing.T) {
	loop := sim.NewLoop()
	hv := newFake(loop, 11)
	a := defaultAgent(t, loop, hv, NewSmartHarvest(10, SmartHarvestOptions{}), nil)
	if err := a.SetPrimaryAlloc(0); err == nil {
		t.Fatal("alloc 0 accepted")
	}
	if err := a.SetPrimaryAlloc(11); err == nil {
		t.Fatal("alloc beyond total-elasticMin accepted")
	}
}

func TestControllersSetAlloc(t *testing.T) {
	// Every stock controller follows allocation changes.
	for _, c := range []Controller{
		NewSmartHarvest(20, SmartHarvestOptions{}),
		NewFixedBuffer(20, 15),
		NewPrevPeak(20, 10, true),
		NewNoHarvest(20),
		NewEWMAController(20, 0.3, 1),
	} {
		aa, ok := c.(AllocAware)
		if !ok {
			t.Fatalf("%s does not implement AllocAware", c.Name())
		}
		aa.SetAlloc(10)
		// After shrinking, no decision may exceed the new allocation.
		w := Window{Samples: []int{10, 10}, Peak: 10, Peak1s: 10, Busy: 9, CurrentTarget: 10}
		if got := c.OnWindowEnd(w); got > 10 {
			t.Errorf("%s returned %d after SetAlloc(10)", c.Name(), got)
		}
		wSafe := w
		wSafe.Safeguard = true
		if c.Safeguards() {
			if got := c.OnWindowEnd(wSafe); got > 10 {
				t.Errorf("%s safeguard returned %d after SetAlloc(10)", c.Name(), got)
			}
		}
	}
}

func TestSmartHarvestSetAllocBounds(t *testing.T) {
	s := NewSmartHarvest(10, SmartHarvestOptions{})
	for _, bad := range []int{0, 11} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("SetAlloc(%d) did not panic", bad)
				}
			}()
			s.SetAlloc(bad)
		}()
	}
	s.SetAlloc(5) // within the constructed class range: fine
}

func TestFixedBufferSetAllocClampsK(t *testing.T) {
	f := NewFixedBuffer(20, 15)
	f.SetAlloc(10)
	// k was 15 > new alloc; must clamp so targets stay valid.
	target, ok := f.OnPoll(0, 99)
	if !ok || target > 10 {
		t.Fatalf("target %d ok=%v", target, ok)
	}
}

func TestSmartHarvestModelPersistence(t *testing.T) {
	train := func(s *SmartHarvest) {
		w := Window{Samples: []int{1, 2, 3, 2}, Peak: 3, Peak1s: 3, Busy: 1, CurrentTarget: 10}
		for i := 0; i < 200; i++ {
			s.OnWindowEnd(w)
		}
	}
	a := NewSmartHarvest(10, SmartHarvestOptions{})
	train(a)
	var buf bytes.Buffer
	if err := a.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	b := NewSmartHarvest(10, SmartHarvestOptions{})
	if err := b.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	w := Window{Samples: []int{1, 2, 3, 2}, Peak: 3, Peak1s: 3, Busy: 1, CurrentTarget: 10}
	if got, want := b.OnWindowEnd(w), a.OnWindowEnd(w); got != want {
		t.Fatalf("restored decision %d != original %d", got, want)
	}
	// Class mismatch rejected.
	var buf2 bytes.Buffer
	if err := a.SaveModel(&buf2); err != nil {
		t.Fatal(err)
	}
	c := NewSmartHarvest(5, SmartHarvestOptions{})
	if err := c.LoadModel(&buf2); err == nil {
		t.Fatal("class mismatch accepted")
	}
	// Every predictor persists; AdaGrad's accumulators travel along.
	d := NewSmartHarvest(10, zooOptions("adagrad"))
	train(d)
	var buf3 bytes.Buffer
	if err := d.SaveModel(&buf3); err != nil {
		t.Fatalf("adagrad save: %v", err)
	}
	e := NewSmartHarvest(10, zooOptions("adagrad"))
	if err := e.LoadModel(&buf3); err != nil {
		t.Fatalf("adagrad load: %v", err)
	}
	if got, want := e.OnWindowEnd(w), d.OnWindowEnd(w); got != want {
		t.Fatalf("restored adagrad decision %d != original %d", got, want)
	}
}

// TestCheckpointRestorePredictionsIdentical is the crash-restart
// round-trip: checkpoint the controller at window W, restore into a
// fresh agent's controller, and require bit-identical decisions for
// every subsequent window. Unlike SaveModel/LoadModel, Checkpoint
// carries the train-on-previous-features state (prevX/havePrev), so the
// two controllers also train identically from W+1 on.
func TestCheckpointRestorePredictionsIdentical(t *testing.T) {
	// Deterministic, varying workload: no two adjacent windows alike.
	window := func(i int) Window {
		base := 1 + i%4
		peak := base + (i/3)%3
		return Window{
			Samples:       []int{base, peak, base + 1, peak, base},
			Peak:          peak,
			Peak1s:        peak + i%2,
			Busy:          base,
			CurrentTarget: 10,
		}
	}
	a := NewSmartHarvest(10, SmartHarvestOptions{})
	const w = 120
	for i := 0; i < w; i++ {
		a.OnWindowEnd(window(i))
	}
	snap, err := a.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	trainsAtCheckpoint := a.Predictor().Updates()
	b := NewSmartHarvest(10, SmartHarvestOptions{})
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	trainsAtRestore := b.Predictor().Updates()
	for i := w; i < 2*w; i++ {
		ga, gb := a.OnWindowEnd(window(i)), b.OnWindowEnd(window(i))
		if ga != gb {
			t.Fatalf("window %d: restored decision %d != original %d", i+1, gb, ga)
		}
	}
	if got, want := b.Predictor().Updates()-trainsAtRestore, a.Predictor().Updates()-trainsAtCheckpoint; got != want {
		t.Fatalf("restored controller trained %d times, original %d after checkpoint", got, want)
	}

	// Corrupt checkpoints are rejected, not silently accepted.
	if err := b.Restore([]byte(`{"model":"","prev_x":[1],"have_prev":true}`)); err == nil {
		t.Fatal("short prev_x accepted")
	}
	if err := b.Restore([]byte(`not json`)); err == nil {
		t.Fatal("garbage checkpoint accepted")
	}

	// AdaGrad checkpoints through the same Predictor round-trip.
	d := NewSmartHarvest(10, zooOptions("adagrad"))
	for i := 0; i < w; i++ {
		d.OnWindowEnd(window(i))
	}
	dsnap, err := d.Checkpoint()
	if err != nil {
		t.Fatalf("adagrad checkpoint: %v", err)
	}
	e := NewSmartHarvest(10, zooOptions("adagrad"))
	if err := e.Restore(dsnap); err != nil {
		t.Fatalf("adagrad restore: %v", err)
	}
	for i := w; i < 2*w; i++ {
		gd, ge := d.OnWindowEnd(window(i)), e.OnWindowEnd(window(i))
		if gd != ge {
			t.Fatalf("adagrad window %d: restored decision %d != original %d", i+1, ge, gd)
		}
	}
	// A checkpoint from one predictor cannot restore into another.
	csoaaCtrl := NewSmartHarvest(10, SmartHarvestOptions{})
	if err := csoaaCtrl.Restore(dsnap); err == nil {
		t.Fatal("cross-predictor checkpoint accepted")
	}
	d.Reset()
	if got := d.OnWindowEnd(window(0)); got < 1 || got > 10 {
		t.Fatalf("reset adagrad controller decision %d out of range", got)
	}
}
