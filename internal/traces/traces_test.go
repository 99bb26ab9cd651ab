package traces

import (
	"bytes"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"smartharvest/internal/sim"
)

func TestGenerateRate(t *testing.T) {
	cfg := DefaultConfig(500, 30*sim.Second)
	events, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := float64(len(events)) / cfg.Span.Seconds()
	if math.Abs(rate-500)/500 > 0.15 {
		t.Fatalf("trace rate %v, want ~500", rate)
	}
}

func TestGenerateSortedAndBounded(t *testing.T) {
	events, err := Generate(DefaultConfig(1000, 5*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		if e.At < 0 || e.At >= 5*sim.Second {
			t.Fatalf("event %d out of span: %v", i, e.At)
		}
		if i > 0 && e.At < events[i-1].At {
			t.Fatal("trace not sorted")
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(DefaultConfig(200, 2*sim.Second))
	b, _ := Generate(DefaultConfig(200, 2*sim.Second))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces differ at %d", i)
		}
	}
}

func TestGenerateBurstiness(t *testing.T) {
	// With bursts, the variance of per-10ms counts should far exceed the
	// Poisson-equivalent variance (= mean).
	cfg := DefaultConfig(2000, 20*sim.Second)
	events, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	window := 10 * sim.Millisecond
	counts := make([]float64, int(cfg.Span/window))
	for _, e := range events {
		counts[int(e.At/window)]++
	}
	var mean, varSum float64
	for _, c := range counts {
		mean += c
	}
	mean /= float64(len(counts))
	for _, c := range counts {
		varSum += (c - mean) * (c - mean)
	}
	variance := varSum / float64(len(counts))
	if variance < 2*mean {
		t.Fatalf("index of dispersion %v; bursty trace should be > 2", variance/mean)
	}
}

func TestGenerateValidation(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	burst := func(rate float64) Config {
		return Config{QPS: 100, Span: sim.Second, BurstFraction: 0.5, BurstRate: rate, BurstWidth: sim.Millisecond}
	}
	bad := []Config{
		{QPS: 0, Span: sim.Second},
		{QPS: 100, Span: 0},
		{QPS: 100, Span: sim.Second, BurstFraction: 1.5},
		{QPS: 100, Span: sim.Second, BurstFraction: 0.5}, // no burst rate/width
		{QPS: 100, Span: sim.Second, LoadWave: 2},
		// A load wave needs a period: t % WavePeriod divides by it.
		{QPS: 100, Span: sim.Second, LoadWave: 0.3},
		{QPS: 100, Span: sim.Second, LoadWave: 0.3, WavePeriod: -sim.Second},
		// Rates must be finite and within [minRate, maxRate]: at +Inf the
		// mean gap is 0 and the draw loop never advances, and far enough
		// below the floor the mean gap is +Inf.
		{QPS: inf, Span: sim.Second},
		{QPS: nan, Span: sim.Second},
		{QPS: 2e9, Span: sim.Second},
		{QPS: 1e-300, Span: sim.Second},
		burst(inf), burst(nan), burst(2e9), burst(1e-300),
		// NaN passes a plain range check.
		{QPS: 100, Span: sim.Second, BurstFraction: nan},
		{QPS: 100, Span: sim.Second, LoadWave: nan, WavePeriod: sim.Second},
	}
	for i, cfg := range bad {
		// validate first: at an unguarded rate Generate would not return.
		if err := cfg.validate(); err == nil {
			t.Fatalf("config %d accepted: %+v", i, cfg)
		}
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("config %d generated: %+v", i, cfg)
		}
	}
	edges := []Config{{QPS: minRate, Span: sim.Second}, {QPS: maxRate, Span: sim.Second}, burst(minRate), burst(maxRate)}
	for _, cfg := range edges {
		if err := cfg.validate(); err != nil {
			t.Fatalf("a rate at the bound refused: %v", err)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	events, err := Generate(DefaultConfig(300, 2*sim.Second))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("round trip: %d vs %d events", len(got), len(events))
	}
	for i := range got {
		if got[i] != events[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# a comment\n\n100 2\n 200 1 \n"
	got, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].At != 100 || got[0].Batch != 2 || got[1].At != 200 {
		t.Fatalf("parsed %+v", got)
	}
}

func TestReadErrors(t *testing.T) {
	for _, in := range []string{"abc 1\n", "100 xyz\n", "100\n", "1 2 3\n"} {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Fatalf("input %q accepted", in)
		}
	}
}

func TestSinApprox(t *testing.T) {
	for _, c := range []struct{ phase, want float64 }{
		{0, 0}, {0.25, 1}, {0.5, 0}, {0.75, -1},
	} {
		if got := sinApprox(c.phase); math.Abs(got-c.want) > 0.02 {
			t.Fatalf("sinApprox(%v) = %v, want ~%v", c.phase, got, c.want)
		}
	}
}

// TestGenerateMatchesSortSliceReference pins the trace bytes to the eager
// events as sort.Slice orders them: no sort here is stable, nor is the
// stream's merge, and the output is the same only because events that tie
// on At are identical values. The three configs cover background only,
// bursts (squeezed into 200 ns so that timestamps do tie), and the
// default bursts on a load wave.
func TestGenerateMatchesSortSliceReference(t *testing.T) {
	plain := DefaultConfig(2000, 10*sim.Second)
	plain.BurstFraction, plain.LoadWave = 0, 0
	bursts := DefaultConfig(2000, 10*sim.Second)
	bursts.LoadWave, bursts.BurstWidth = 0, 200*sim.Nanosecond
	wave := DefaultConfig(2000, 10*sim.Second)
	wave.LoadWave, wave.WavePeriod = 0.6, 2*sim.Second
	for name, cfg := range map[string]Config{"no bursts": plain, "bursts": bursts, "load wave": wave} {
		want := eagerArrivals(cfg)
		sort.Slice(want, func(i, j int) bool { return want[i].At < want[j].At })
		got, err := Generate(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ties := 0
		for i := 1; i < len(want); i++ {
			if want[i].At == want[i-1].At {
				ties++
			}
		}
		if name == "bursts" && ties == 0 {
			t.Errorf("%s: no tied timestamps among %d events; the config does not exercise tie order", name, len(want))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: Generate differs from the sort.Slice reference over %d events", name, len(want))
		}
	}
}
