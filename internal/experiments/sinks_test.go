package experiments

import (
	"reflect"
	"testing"

	"smartharvest/internal/metrics"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// TestBusyStatsWindows feeds busyStats a hand-built poll stream: samples
// before warm-up are ignored, a sample at a window's end instant counts
// in the next window, and the trailing partial window is not a peak.
func TestBusyStatsWindows(t *testing.T) {
	const warmup = 100 * sim.Millisecond
	ms := sim.Millisecond
	b := newBusyStats(warmup)
	for _, e := range []obs.PollSample{
		{At: 50 * ms, Busy: 9}, // warm-up
		{At: 100 * ms, Busy: 2},
		{At: 110 * ms, Busy: 4},
		{At: 125 * ms, Busy: 7}, // the first window's end opens the second
		{At: 140 * ms, Busy: 1},
		{At: 150 * ms, Busy: 3},
		{At: 160 * ms, Busy: 8}, // trailing partial window
	} {
		b.OnPollSample(e)
	}
	want := []metrics.Point{{Time: int64(125 * ms), Value: 4}, {Time: int64(150 * ms), Value: 7}}
	if !reflect.DeepEqual(b.peaks.Points, want) {
		t.Errorf("window peaks %v, want %v", b.peaks.Points, want)
	}
	if busy, peak := b.means(); busy != 25.0/6 || peak != 5.5 {
		t.Errorf("means busy %v peak %v, want %v and 5.5", busy, peak, 25.0/6)
	}
	if busy, peak := newBusyStats(warmup).means(); busy != 0 || peak != 0 {
		t.Errorf("empty means %v %v", busy, peak)
	}
}

// TestWindowSeriesPoints: each window event adds (At, Target) to the
// target series and (At, Features.Max) to the peak series, not the raw
// prediction or the decision-instant busy reading.
func TestWindowSeriesPoints(t *testing.T) {
	var w windowSeries
	w.OnWindowEnd(obs.WindowEnd{At: 25 * sim.Millisecond, Features: obs.Features{Min: 1, Max: 6},
		Peak1s: 9, Busy: 2, Prediction: 3, Target: 7})
	w.OnWindowEnd(obs.WindowEnd{At: 40 * sim.Millisecond, Features: obs.Features{Max: 10},
		Busy: 10, Safeguard: true, Prediction: 5, Target: 10})
	at := []int64{int64(25 * sim.Millisecond), int64(40 * sim.Millisecond)}
	if want := []metrics.Point{{Time: at[0], Value: 7}, {Time: at[1], Value: 10}}; !reflect.DeepEqual(w.target.Points, want) {
		t.Errorf("target series %v, want %v", w.target.Points, want)
	}
	if want := []metrics.Point{{Time: at[0], Value: 6}, {Time: at[1], Value: 10}}; !reflect.DeepEqual(w.peak.Points, want) {
		t.Errorf("peak series %v, want %v", w.peak.Points, want)
	}
}
