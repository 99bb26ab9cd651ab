package metrics

import "math"

// Point is one sample of a time series.
type Point struct {
	Time  int64 // nanoseconds
	Value float64
}

// Series records (time, value) samples, e.g. for Figure 7's per-window
// peak-usage and allocation traces.
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t int64, v float64) {
	s.Points = append(s.Points, Point{Time: t, Value: v})
}

// Mean returns the unweighted mean of the samples, or 0 if empty.
func (s *Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range s.Points {
		sum += p.Value
	}
	return sum / float64(len(s.Points))
}

// Downsample returns a series with at most n points, averaging each chunk;
// used to keep experiment output readable.
func (s *Series) Downsample(n int) *Series {
	if n <= 0 || len(s.Points) <= n {
		cp := &Series{Name: s.Name, Points: make([]Point, len(s.Points))}
		copy(cp.Points, s.Points)
		return cp
	}
	out := &Series{Name: s.Name}
	chunk := (len(s.Points) + n - 1) / n
	for i := 0; i < len(s.Points); i += chunk {
		end := i + chunk
		if end > len(s.Points) {
			end = len(s.Points)
		}
		var tSum, vSum float64
		for _, p := range s.Points[i:end] {
			tSum += float64(p.Time)
			vSum += p.Value
		}
		cnt := float64(end - i)
		out.Points = append(out.Points, Point{Time: int64(tSum / cnt), Value: vSum / cnt})
	}
	return out
}

// Welford accumulates mean and variance in one pass without storing
// samples; used for summary statistics over unbounded streams.
type Welford struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records a value.
func (w *Welford) Add(v float64) {
	if w.n == 0 {
		w.min, w.max = v, v
	} else {
		if v < w.min {
			w.min = v
		}
		if v > w.max {
			w.max = v
		}
	}
	w.n++
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

// Count returns the number of values added.
func (w *Welford) Count() uint64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Min returns the smallest value added (0 when empty).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return 0
	}
	return w.min
}

// Max returns the largest value added (0 when empty).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return 0
	}
	return w.max
}

// Stddev returns the population standard deviation (0 when n < 2).
func (w *Welford) Stddev() float64 {
	if w.n < 2 {
		return 0
	}
	return math.Sqrt(w.m2 / float64(w.n))
}
