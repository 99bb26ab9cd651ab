package experiments

import (
	"smartharvest/internal/metrics"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// busyWindow is Table 1's peak window.
const busyWindow = 25 * sim.Millisecond

// busyStats folds the agent's poll samples into Table 1's statistics: the
// mean busy primary cores over every sample from warm-up on, and the mean
// of the per-window peaks. Windows are busyWindow long and start at
// warm-up; a sample at a window's end instant opens the next window, and
// a trailing partial window is not counted. One instance serves exactly
// one scenario.
type busyStats struct {
	obs.NopObserver
	warmup sim.Time

	sum   float64        // busy cores summed over the samples
	n     uint64         // samples
	end   sim.Time       // the open window's end
	peak  int            // the open window's peak
	peaks metrics.Series // each closed window's peak, at its end
}

func newBusyStats(warmup sim.Time) *busyStats {
	return &busyStats{warmup: warmup, end: warmup + busyWindow}
}

func (b *busyStats) OnPollSample(e obs.PollSample) {
	if e.At < b.warmup {
		return
	}
	for e.At >= b.end {
		b.peaks.Add(int64(b.end), float64(b.peak))
		b.peak = 0
		b.end += busyWindow
	}
	b.sum += float64(e.Busy)
	b.n++
	b.peak = max(b.peak, e.Busy)
}

// means returns the mean busy cores and the mean window peak.
func (b *busyStats) means() (busy, peak float64) {
	if b.n == 0 {
		return 0, 0
	}
	return b.sum / float64(b.n), b.peaks.Mean()
}

// windowSeries records, for every window the agent ends, the primary-core
// target it set and the window's observed peak (Figure 7, churn).
type windowSeries struct {
	obs.NopObserver
	target, peak metrics.Series
}

func (w *windowSeries) OnWindowEnd(e obs.WindowEnd) {
	w.target.Add(int64(e.At), float64(e.Target))
	w.peak.Add(int64(e.At), float64(e.Features.Max))
}
