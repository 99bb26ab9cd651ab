package sim

import "testing"

// BenchmarkLoop measures the schedule-and-fire churn typical of the
// simulator's scheduling events: a small standing queue with events
// constantly added and popped.
func BenchmarkLoop(b *testing.B) {
	l := NewLoop()
	fn := func() {}
	// Standing backlog so pops exercise the heap, not the trivial
	// single-element case.
	for i := 0; i < 64; i++ {
		l.After(Time(i+1)*Microsecond, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.After(100*Microsecond, fn)
		l.Step()
	}
}

// BenchmarkTicker measures one tick of the 50 µs busy-poll ticker that
// dominates every agent run (~20,000 fires per simulated second).
func BenchmarkTicker(b *testing.B) {
	l := NewLoop()
	ticks := 0
	l.NewTicker(0, 50*Microsecond, func() { ticks++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.RunUntil(l.Now() + 50*Microsecond)
	}
	if ticks < b.N {
		b.Fatalf("ticks = %d, want >= %d", ticks, b.N)
	}
}

// BenchmarkCancel measures the schedule-then-cancel pattern used by
// timeout-style events that almost never fire.
func BenchmarkCancel(b *testing.B) {
	l := NewLoop()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := l.After(Millisecond, fn)
		l.Cancel(e)
	}
}

// BenchmarkLoopFleetShape measures one fired event on a loop shaped like an
// eight-server fleet: about 120 standing heap events that re-arm 1–1000 µs
// ahead (requests, slices, tickers) and eight sources re-arming every
// 50 µs (the agents' polls), which then make up about 40 % of what fires.
// The "lane" case sends the sources through Lane.After, the "heap" case
// through Loop.After; both fire the same events in the same order.
func BenchmarkLoopFleetShape(b *testing.B) {
	for _, tc := range []struct {
		name    string
		viaLane bool
	}{{"lane", true}, {"heap", false}} {
		b.Run(tc.name, func(b *testing.B) {
			l := NewLoop()
			lane := l.Lane(50 * Microsecond)
			rng := uint64(1)
			for i := 0; i < 120; i++ {
				var fn func()
				fn = func() {
					rng = rng*6364136223846793005 + 1442695040888963407
					l.After(Time(1+rng>>33%1000)*Microsecond, fn)
				}
				l.At(Time(i)*Microsecond, fn)
			}
			for i := 0; i < 8; i++ {
				var poll func()
				if tc.viaLane {
					poll = func() { lane.After(poll) }
				} else {
					poll = func() { l.After(50*Microsecond, poll) }
				}
				l.At(Time(i)*6*Microsecond, poll)
			}
			l.RunUntil(10 * Millisecond) // settle: free list and ring grown
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.Step()
			}
		})
	}
}
