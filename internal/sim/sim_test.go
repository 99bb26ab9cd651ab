package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestOrderingByTime(t *testing.T) {
	l := NewLoop()
	var got []int
	l.At(30*Microsecond, func() { got = append(got, 3) })
	l.At(10*Microsecond, func() { got = append(got, 1) })
	l.At(20*Microsecond, func() { got = append(got, 2) })
	l.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if l.Now() != 30*Microsecond {
		t.Fatalf("final clock %v", l.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	l := NewLoop()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		l.At(Millisecond, func() { got = append(got, i) })
	}
	l.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestAfterUsesCurrentTime(t *testing.T) {
	l := NewLoop()
	var fireTime Time
	l.At(5*Millisecond, func() {
		l.After(2*Millisecond, func() { fireTime = l.Now() })
	})
	l.Run()
	if fireTime != 7*Millisecond {
		t.Fatalf("After fired at %v, want 7ms", fireTime)
	}
}

func TestCancel(t *testing.T) {
	l := NewLoop()
	fired := false
	e := l.At(Millisecond, func() { fired = true })
	l.Cancel(e)
	l.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("event not marked canceled")
	}
	l.Cancel(e) // idempotent
	l.Cancel(nil)
}

func TestCancelMiddleOfHeap(t *testing.T) {
	l := NewLoop()
	var got []int
	var events []*Event
	for i := 0; i < 50; i++ {
		i := i
		events = append(events, l.At(Time(i)*Microsecond, func() { got = append(got, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 50; i += 3 {
		l.Cancel(events[i])
	}
	l.Run()
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("canceled event %d fired", v)
		}
	}
	if len(got) != 50-17 {
		t.Fatalf("fired %d events, want %d", len(got), 50-17)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	l := NewLoop()
	l.At(10*Millisecond, func() {})
	l.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	l.At(Millisecond, func() {})
}

func TestNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil callback did not panic")
		}
	}()
	NewLoop().At(0, nil)
}

func TestRunUntil(t *testing.T) {
	l := NewLoop()
	var fired []Time
	for i := 1; i <= 10; i++ {
		tm := Time(i) * Millisecond
		l.At(tm, func() { fired = append(fired, tm) })
	}
	l.RunUntil(5 * Millisecond)
	if len(fired) != 5 {
		t.Fatalf("fired %d events, want 5 (inclusive boundary)", len(fired))
	}
	if l.Now() != 5*Millisecond {
		t.Fatalf("clock %v after RunUntil", l.Now())
	}
	l.RunUntil(20 * Millisecond)
	if len(fired) != 10 {
		t.Fatalf("fired %d events after second RunUntil", len(fired))
	}
	if l.Now() != 20*Millisecond {
		t.Fatalf("clock should land exactly on end: %v", l.Now())
	}
}

func TestRunUntilEmptyAdvancesClock(t *testing.T) {
	l := NewLoop()
	l.RunUntil(Second)
	if l.Now() != Second {
		t.Fatalf("clock %v", l.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	l := NewLoop()
	if l.Step() {
		t.Fatal("Step on empty loop returned true")
	}
}

func TestEventScheduledDuringCallback(t *testing.T) {
	l := NewLoop()
	count := 0
	var rec func()
	rec = func() {
		count++
		if count < 5 {
			l.After(Millisecond, rec)
		}
	}
	l.At(0, rec)
	l.Run()
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if l.Now() != 4*Millisecond {
		t.Fatalf("clock %v", l.Now())
	}
}

func TestTicker(t *testing.T) {
	l := NewLoop()
	var ticks []Time
	tk := l.NewTicker(Millisecond, 2*Millisecond, func() {
		ticks = append(ticks, l.Now())
	})
	l.RunUntil(10 * Millisecond)
	tk.Stop()
	l.RunUntil(20 * Millisecond)
	want := []Time{1, 3, 5, 7, 9}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v", ticks)
	}
	for i := range want {
		if ticks[i] != want[i]*Millisecond {
			t.Fatalf("tick %d at %v, want %v ms", i, ticks[i], want[i])
		}
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	l := NewLoop()
	count := 0
	var tk *Ticker
	tk = l.NewTicker(0, Millisecond, func() {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	l.Run()
	if count != 3 {
		t.Fatalf("count = %d", count)
	}
	tk.Stop() // idempotent
}

func TestTickerSetInterval(t *testing.T) {
	l := NewLoop()
	var ticks []Time
	var tk *Ticker
	tk = l.NewTicker(0, Millisecond, func() {
		ticks = append(ticks, l.Now())
		if len(ticks) == 2 {
			tk.SetInterval(5 * Millisecond)
		}
	})
	l.RunUntil(12 * Millisecond)
	tk.Stop()
	want := []Time{0, Millisecond, 6 * Millisecond, 11 * Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestEventRecycling(t *testing.T) {
	l := NewLoop()
	e1 := l.After(Microsecond, func() {})
	l.Run()
	// The fired event goes back to the free list and is reused by the
	// next schedule (white-box: same pointer, fresh identity).
	e2 := l.After(Microsecond, func() {})
	if e1 != e2 {
		t.Fatal("fired event was not recycled")
	}
	if e2.Canceled() {
		t.Fatal("recycled event should be pending again")
	}
	fired := false
	e3 := l.After(Microsecond, func() { fired = true })
	if e3 == e2 {
		t.Fatal("pending event handed out twice")
	}
	l.Run()
	if !fired {
		t.Fatal("recycled-era event did not fire")
	}
}

func TestCanceledEventRecycled(t *testing.T) {
	l := NewLoop()
	e := l.After(Millisecond, func() { t.Fatal("canceled event fired") })
	l.Cancel(e)
	reused := l.After(Microsecond, func() {})
	if reused != e {
		t.Fatal("canceled event was not recycled")
	}
	l.Run()
}

func TestStepsNoAllocSteadyState(t *testing.T) {
	l := NewLoop()
	fn := func() {}
	// Prime the free list.
	l.After(Microsecond, fn)
	l.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		l.After(Microsecond, fn)
		l.Step()
	})
	if allocs > 0 {
		t.Fatalf("steady-state schedule+fire allocates %v objects/op", allocs)
	}
}

func TestTickerNoAllocPerTick(t *testing.T) {
	l := NewLoop()
	ticks := 0
	l.NewTicker(0, 50*Microsecond, func() { ticks++ })
	l.RunUntil(Millisecond) // settle
	allocs := testing.AllocsPerRun(1000, func() {
		l.RunUntil(l.Now() + 50*Microsecond)
	})
	if allocs > 0 {
		t.Fatalf("ticker allocates %v objects per tick", allocs)
	}
	if ticks == 0 {
		t.Fatal("ticker never ticked")
	}
}

// TestTickerStopInsideTick pins the Stop-inside-tick edge of the event
// reuse scheme: the tick event must be recycled exactly once, and later
// schedules must not resurrect the ticker.
func TestTickerStopInsideTick(t *testing.T) {
	l := NewLoop()
	count := 0
	var tk *Ticker
	tk = l.NewTicker(0, Millisecond, func() {
		count++
		tk.Stop()
	})
	l.Run()
	if count != 1 {
		t.Fatalf("ticks after Stop-inside-tick: %d", count)
	}
	// The recycled tick event must be a fresh, unrelated event now.
	fired := false
	l.After(Microsecond, func() { fired = true })
	l.Run()
	if !fired || count != 1 {
		t.Fatalf("recycled tick event misbehaved: fired=%v count=%d", fired, count)
	}
}

// TestTickerSetIntervalPendingUnaffected pins the SetInterval contract:
// the change applies from the next reschedule; a tick already pending
// fires at its originally scheduled time.
func TestTickerSetIntervalPendingUnaffected(t *testing.T) {
	l := NewLoop()
	var ticks []Time
	tk := l.NewTicker(0, 2*Millisecond, func() { ticks = append(ticks, l.Now()) })
	// After the t=0 tick, a tick is pending at t=2ms. Changing the
	// interval at t=1ms must not move it.
	l.At(Millisecond, func() { tk.SetInterval(5 * Millisecond) })
	l.RunUntil(8 * Millisecond)
	tk.Stop()
	want := []Time{0, 2 * Millisecond, 7 * Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

// TestTickerSetIntervalInsideTick pins the other half of the contract:
// from inside the callback the new interval takes effect immediately,
// because the next tick is scheduled after the callback returns.
func TestTickerSetIntervalInsideTick(t *testing.T) {
	l := NewLoop()
	var ticks []Time
	var tk *Ticker
	tk = l.NewTicker(0, Millisecond, func() {
		ticks = append(ticks, l.Now())
		if len(ticks) == 1 {
			tk.SetInterval(3 * Millisecond)
		}
	})
	l.RunUntil(7 * Millisecond)
	tk.Stop()
	want := []Time{0, 3 * Millisecond, 6 * Millisecond}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

// Property: interleaved scheduling, canceling, and firing keeps the heap
// consistent and events in order even with recycling.
func TestRecyclingOrderProperty(t *testing.T) {
	if err := quick.Check(func(offsets []uint16, cancelMask []bool) bool {
		l := NewLoop()
		var fired []Time
		var events []*Event
		for _, off := range offsets {
			tm := l.Now() + Time(off)*Microsecond
			events = append(events, l.At(tm, func() { fired = append(fired, l.Now()) }))
		}
		canceled := 0
		for i, e := range events {
			if i < len(cancelMask) && cancelMask[i] {
				l.Cancel(e)
				canceled++
			}
		}
		// Schedule more events after cancels so recycled structs get
		// reused mid-run.
		for _, off := range offsets {
			tm := l.Now() + Time(off)*Microsecond
			l.At(tm, func() { fired = append(fired, l.Now()) })
		}
		l.Run()
		if len(fired) != 2*len(offsets)-canceled {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationConversions(t *testing.T) {
	if Duration(time.Millisecond) != Millisecond {
		t.Fatal("Duration conversion wrong")
	}
	if (2 * Second).Seconds() != 2 {
		t.Fatal("Seconds conversion wrong")
	}
	if (Millisecond + 500*Microsecond).Milliseconds() != 1.5 {
		t.Fatal("Milliseconds conversion wrong")
	}
	if (3 * Microsecond).Microseconds() != 3 {
		t.Fatal("Microseconds conversion wrong")
	}
	if (50 * Microsecond).ToDuration() != 50*time.Microsecond {
		t.Fatal("ToDuration wrong")
	}
}

// Property: regardless of insertion order, events fire in nondecreasing
// time order and the clock never goes backwards.
func TestEventOrderProperty(t *testing.T) {
	if err := quick.Check(func(offsets []uint16) bool {
		l := NewLoop()
		var fired []Time
		for _, off := range offsets {
			tm := Time(off) * Microsecond
			l.At(tm, func() { fired = append(fired, l.Now()) })
		}
		l.Run()
		if len(fired) != len(offsets) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndFire(b *testing.B) {
	l := NewLoop()
	for i := 0; i < b.N; i++ {
		l.After(Microsecond, func() {})
		l.Step()
	}
}

// TestScheduleAndFireZeroAllocs pins the event-loop hot path at zero
// allocations per schedule+fire cycle — the property the observability
// layer's disabled path depends on. CI also runs the benchmark directly.
func TestScheduleAndFireZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed")
	}
	// Not AllocsPerOp: it is an integer division that reads anything under
	// one allocation per cycle as 0. B/op resolves finer; the total bounds
	// what even that would round away.
	res := testing.Benchmark(BenchmarkScheduleAndFire)
	if b := res.AllocedBytesPerOp(); b != 0 || res.MemAllocs*1000 > uint64(res.N) {
		t.Fatalf("schedule+fire allocates %d B/op (%d allocs over %d cycles), want 0",
			b, res.MemAllocs, res.N)
	}
}

func TestNext(t *testing.T) {
	l := NewLoop()
	if _, ok := l.Next(); ok {
		t.Fatal("Next on empty loop reported an event")
	}
	l.At(3*Millisecond, func() {})
	l.At(Millisecond, func() {})
	if when, ok := l.Next(); !ok || when != Millisecond {
		t.Fatalf("Next = %v, %v; want 1ms, true", when, ok)
	}
}

// StepLate fires overdue events at the late clock, in their scheduled
// order, never moves the clock backwards, and leaves on-time events alone.
func TestStepLate(t *testing.T) {
	l := NewLoop()
	type fire struct {
		id int
		at Time
	}
	var got []fire
	for i := 1; i <= 3; i++ {
		i := i
		l.At(Time(i)*Millisecond, func() { got = append(got, fire{i, l.Now()}) })
	}
	// A ticker re-arms relative to the (late) now, not its scheduled time.
	tk := l.NewTicker(Millisecond, Millisecond, func() { got = append(got, fire{0, l.Now()}) })
	late := 2*Millisecond + 500*Microsecond
	for i := 0; i < 3; i++ { // events 1, the tick, 2: all overdue
		l.StepLate(late)
	}
	if when, _ := l.Next(); when != 3*Millisecond {
		t.Fatalf("next event at %v, want the on-time one at 3ms", when)
	}
	l.StepLate(late) // event 3 is not overdue: fires at its own time
	tk.Stop()
	want := []fire{{1, late}, {0, late}, {2, late}, {3, 3 * Millisecond}}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if l.StepLate(late) {
		t.Fatal("StepLate on an empty loop returned true")
	}
	if l.Now() != 3*Millisecond {
		t.Fatalf("clock %v moved backwards or past the last event", l.Now())
	}
}
