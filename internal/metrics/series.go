package metrics

import "math"

// Counter accumulates a time-weighted integral of a step function, such as
// "number of cores assigned to the ElasticVM over time". The average value
// over an interval is Integral/elapsed.
type Counter struct {
	value    float64
	lastTime int64
	integral float64
	started  bool
	start    int64
}

// Set updates the step function's value at time now (nanoseconds), folding
// the previous value's contribution into the integral.
func (c *Counter) Set(now int64, v float64) {
	if !c.started {
		c.started = true
		c.start = now
		c.lastTime = now
		c.value = v
		return
	}
	if now < c.lastTime {
		panic("metrics: Counter time went backwards")
	}
	c.integral += c.value * float64(now-c.lastTime)
	c.lastTime = now
	c.value = v
}

// Value returns the current value of the step function.
func (c *Counter) Value() float64 { return c.value }

// Average returns the time-weighted average from the first Set through
// time now. It returns the current value if no time has elapsed.
func (c *Counter) Average(now int64) float64 {
	if !c.started || now <= c.start {
		return c.value
	}
	integral := c.integral + c.value*float64(now-c.lastTime)
	return integral / float64(now-c.start)
}

// Integral returns the integral of the step function through now, in
// value·nanoseconds.
func (c *Counter) Integral(now int64) float64 {
	if !c.started {
		return 0
	}
	return c.integral + c.value*float64(now-c.lastTime)
}

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

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.Points) }

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
