package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	if s.Mean() != 0 {
		t.Fatal("empty series stats")
	}
	s.Add(1, 2)
	s.Add(2, 8)
	s.Add(3, 5)
	if len(s.Points) != 3 || s.Mean() != 5 {
		t.Fatalf("series stats: len %d mean %v", len(s.Points), s.Mean())
	}
}

func TestSeriesDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 100; i++ {
		s.Add(int64(i), float64(i))
	}
	d := s.Downsample(10)
	if len(d.Points) != 10 {
		t.Fatalf("downsampled to %d points", len(d.Points))
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
