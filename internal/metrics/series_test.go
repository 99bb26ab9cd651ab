package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCounterAverage(t *testing.T) {
	var c Counter
	c.Set(0, 2)
	c.Set(10, 4) // value 2 for 10ns
	c.Set(30, 0) // value 4 for 20ns
	// average over [0,30] = (2*10 + 4*20) / 30 = 100/30
	got := c.Average(30)
	want := 100.0 / 30.0
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("average = %v, want %v", got, want)
	}
	// Extending with value 0 for another 70ns: 100/100 = 1.
	if got := c.Average(100); math.Abs(got-1) > 1e-12 {
		t.Fatalf("average(100) = %v", got)
	}
}

func TestCounterIntegral(t *testing.T) {
	var c Counter
	c.Set(5, 3)
	if c.Integral(15) != 30 {
		t.Fatalf("integral = %v", c.Integral(15))
	}
	var empty Counter
	if empty.Integral(100) != 0 {
		t.Fatal("empty counter integral not 0")
	}
}

func TestCounterBeforeStart(t *testing.T) {
	var c Counter
	if c.Average(100) != 0 {
		t.Fatal("unstarted counter average not 0")
	}
	c.Set(50, 7)
	if c.Average(50) != 7 {
		t.Fatal("zero-elapsed average should be current value")
	}
	if c.Value() != 7 {
		t.Fatal("value")
	}
}

func TestCounterTimeBackwardsPanics(t *testing.T) {
	var c Counter
	c.Set(10, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on time going backwards")
		}
	}()
	c.Set(5, 2)
}

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.Mean() != 0 {
		t.Fatal("empty series stats")
	}
	s.Add(1, 2)
	s.Add(2, 8)
	s.Add(3, 5)
	if s.Len() != 3 || s.Mean() != 5 {
		t.Fatalf("series stats: len %d mean %v", s.Len(), s.Mean())
	}
}

func TestSeriesDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 100; i++ {
		s.Add(int64(i), float64(i))
	}
	d := s.Downsample(10)
	if d.Len() != 10 {
		t.Fatalf("downsampled to %d points", d.Len())
	}
	// Chunk means preserve the overall mean.
	if math.Abs(d.Mean()-s.Mean()) > 1e-9 {
		t.Fatalf("downsample changed mean: %v vs %v", d.Mean(), s.Mean())
	}
	// Downsample with n >= len returns a copy, not an alias.
	cp := s.Downsample(1000)
	cp.Points[0].Value = -1
	if s.Points[0].Value == -1 {
		t.Fatal("Downsample aliased the input")
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Stddev() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Fatal("empty welford")
	}
	for _, v := range []float64{10, 20, 30, 40, 50} {
		w.Add(v)
	}
	if w.Count() != 5 || w.Mean() != 30 {
		t.Fatalf("welford mean %v count %d", w.Mean(), w.Count())
	}
	if math.Abs(w.Stddev()-math.Sqrt(200)) > 1e-9 {
		t.Fatalf("welford stddev %v", w.Stddev())
	}
	if w.Min() != 10 || w.Max() != 50 {
		t.Fatal("welford extremes")
	}
}

// Property: Welford matches the naive two-pass computation.
func TestWelfordProperty(t *testing.T) {
	if err := quick.Check(func(raw []int16) bool {
		if len(raw) < 2 {
			return true
		}
		var w Welford
		sum := 0.0
		for _, v := range raw {
			w.Add(float64(v))
			sum += float64(v)
		}
		mean := sum / float64(len(raw))
		varSum := 0.0
		for _, v := range raw {
			d := float64(v) - mean
			varSum += d * d
		}
		wantStd := math.Sqrt(varSum / float64(len(raw)))
		return math.Abs(w.Mean()-mean) < 1e-6 && math.Abs(w.Stddev()-wantStd) < 1e-6
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
