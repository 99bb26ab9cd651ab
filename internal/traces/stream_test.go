package traces

import (
	"cmp"
	"encoding/binary"
	"math"
	"runtime"
	"slices"
	"testing"

	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
	"smartharvest/internal/workload"
)

// eagerArrivals is the generator Stream replaced, kept as its reference:
// it draws the whole span's events in generation order, the background
// stream, then the bursts.
func eagerArrivals(cfg Config) []workload.TraceEvent {
	rng := simrng.New(cfg.Seed)
	var events []workload.TraceEvent

	bgQPS := cfg.QPS * (1 - cfg.BurstFraction)
	if bgQPS > 0 {
		meanGap := 1e9 / (bgQPS * (1 + cfg.LoadWave))
		for t := sim.Time(rng.Exp(meanGap)); t < cfg.Span; t += sim.Time(rng.Exp(meanGap)) {
			if cfg.LoadWave > 0 {
				phase := float64(t%cfg.WavePeriod) / float64(cfg.WavePeriod)
				accept := (1 + cfg.LoadWave*sinApprox(phase)) / (1 + cfg.LoadWave)
				if !rng.Bool(accept) {
					continue
				}
			}
			events = append(events, workload.TraceEvent{At: t, Batch: 1})
		}
	}

	if cfg.BurstFraction > 0 {
		burstQPS := cfg.QPS * cfg.BurstFraction
		perBurst := burstQPS / cfg.BurstRate
		if perBurst < 1 {
			perBurst = 1
		}
		meanGap := 1e9 / cfg.BurstRate
		for t := sim.Time(rng.Exp(meanGap)); t < cfg.Span; t += sim.Time(rng.Exp(meanGap)) {
			n := 1 + rng.Geometric(1/perBurst)
			for i := 0; i < n; i++ {
				at := t + sim.Time(rng.Intn(int(cfg.BurstWidth)))
				if at < cfg.Span {
					events = append(events, workload.TraceEvent{At: at, Batch: 1})
				}
			}
		}
	}
	return events
}

// eagerReference is the trace the old Generate returned: eagerArrivals
// sorted by time.
func eagerReference(cfg Config) []workload.TraceEvent {
	events := eagerArrivals(cfg)
	slices.SortFunc(events, func(a, b workload.TraceEvent) int { return cmp.Compare(a.At, b.At) })
	return events
}

// requireStreamMatchesReference steps a Stream and a TraceReplay of the
// eager reference side by side over loops whole spans and fails on the
// first arrival that differs.
func requireStreamMatchesReference(t *testing.T, cfg Config, loops int) {
	t.Helper()
	want := eagerReference(cfg)
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", cfg.Seed, err)
	}
	ref := workload.NewTraceReplay(want, cfg.Span)
	for i := range loops * len(want) {
		gotGap, gotBatch := s.Next(0)
		wantGap, wantBatch := ref.Next(0)
		if gotGap != wantGap || gotBatch != wantBatch {
			t.Fatalf("seed %d: arrival %d (loop %d) is (%v, %d), the reference's is (%v, %d)",
				cfg.Seed, i, i/len(want), gotGap, gotBatch, wantGap, wantBatch)
		}
	}
}

// TestStreamMatchesEagerReference is the on/off equivalence test of the
// streaming trace: every arrival over three loops equals a TraceReplay of
// the eagerly generated, sorted trace. The burst-width case squeezes each
// burst into 200 ns, so timestamps tie within and across streams.
func TestStreamMatchesEagerReference(t *testing.T) {
	noBursts := DefaultConfig(2000, 2*sim.Second)
	noBursts.BurstFraction = 0
	wave := DefaultConfig(1000, 4*sim.Second)
	wave.LoadWave, wave.WavePeriod = 0.6, sim.Second
	ties := DefaultConfig(2000, 2*sim.Second)
	ties.LoadWave, ties.BurstWidth = 0, 200*sim.Nanosecond
	cases := map[string]Config{
		"default-500":  DefaultConfig(500, 30*sim.Second),
		"default-1000": DefaultConfig(1000, 30*sim.Second),
		"default-2000": DefaultConfig(2000, 30*sim.Second),
		"no-bursts":    noBursts,
		"load-wave":    wave,
		"tied-bursts":  ties,
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				cfg.Seed = seed
				if name == "tied-bursts" && seed == 1 && !hasTies(eagerReference(cfg)) {
					t.Fatal("no tied timestamps; the config does not exercise tie order")
				}
				requireStreamMatchesReference(t, cfg, 3)
			}
		})
	}
}

func hasTies(events []workload.TraceEvent) bool {
	for i := 1; i < len(events); i++ {
		if events[i].At == events[i-1].At {
			return true
		}
	}
	return false
}

// TestStreamRejectsEmptyTrace: a configuration whose span draws no
// arrival is refused at construction, as Generate always refused it.
func TestStreamRejectsEmptyTrace(t *testing.T) {
	cfg := DefaultConfig(1, sim.Microsecond)
	cfg.BurstFraction = 0
	if len(eagerArrivals(cfg)) != 0 {
		t.Fatal("the config is meant to draw no arrival")
	}
	if _, err := NewStream(cfg); err == nil {
		t.Fatal("NewStream accepted an empty trace")
	}
	if _, err := Generate(cfg); err == nil {
		t.Fatal("Generate accepted an empty trace")
	}
}

// TestTraceStreamZeroAllocs holds the stream to 0 B and 0 allocations
// over one span's worth of Next calls, which always crosses one loop
// boundary. The first loop and a half warm the pending-burst buffer up to
// the largest burst a loop holds; every later loop repeats the same
// bursts. The totals are read from the runtime, not as a truncated
// per-call average, on one P as testing.AllocsPerRun reads them. Another
// goroutine's allocation can land in a window, so the test passes when
// any of three consecutive windows reads zero: an allocation of the
// stream's own recurs every loop and shows in all three.
func TestTraceStreamZeroAllocs(t *testing.T) {
	cfg := DefaultConfig(2000, 5*sim.Second)
	n := len(eagerReference(cfg))
	s, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for range n + n/2 {
		s.Next(0)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var nBytes, nAllocs uint64
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for range n {
			s.Next(0)
		}
		runtime.ReadMemStats(&after)
		nBytes, nAllocs = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		if nBytes == 0 && nAllocs == 0 {
			return
		}
	}
	t.Fatalf("%d Next calls allocated %d B in %d allocations, want 0", n, nBytes, nAllocs)
}

// FuzzTraceStream decodes a bounded Config (Span ≤ 1 s, QPS and BurstRate
// ≤ 5e4, BurstWidth ≤ 1 s; every other value, NaN and Inf included, as
// given). A rejected config must return an error without panicking; an
// accepted one must equal the eager reference over two loops.
func FuzzTraceStream(f *testing.F) {
	add := func(c Config) {
		var b [56]byte
		binary.LittleEndian.PutUint64(b[0:], math.Float64bits(c.QPS))
		binary.LittleEndian.PutUint64(b[8:], uint64(c.Span))
		binary.LittleEndian.PutUint64(b[16:], math.Float64bits(c.BurstFraction))
		binary.LittleEndian.PutUint64(b[24:], math.Float64bits(c.BurstRate))
		binary.LittleEndian.PutUint64(b[32:], uint64(c.BurstWidth))
		binary.LittleEndian.PutUint64(b[40:], math.Float64bits(c.LoadWave))
		binary.LittleEndian.PutUint64(b[48:], uint64(c.WavePeriod))
		f.Add(b[:], c.Seed)
	}
	add(DefaultConfig(500, sim.Second))
	tied := DefaultConfig(5000, 200*sim.Millisecond)
	tied.BurstWidth = 200 * sim.Nanosecond
	add(tied)
	add(Config{QPS: 300, Span: sim.Second, LoadWave: 0.9, WavePeriod: 90 * sim.Millisecond, Seed: 7})
	add(Config{QPS: 50, Span: 300 * sim.Millisecond, BurstFraction: 1, BurstRate: 3, BurstWidth: 900 * sim.Millisecond})
	add(Config{QPS: math.NaN(), Span: sim.Second})
	add(Config{QPS: 100, Span: sim.Second, LoadWave: 0.5})
	f.Fuzz(func(t *testing.T, b []byte, seed uint64) {
		var w [7]uint64
		for i := range w {
			if len(b) >= 8*(i+1) {
				w[i] = binary.LittleEndian.Uint64(b[8*i:])
			}
		}
		cfg := Config{
			QPS: math.Float64frombits(w[0]), Span: sim.Time(w[1]),
			BurstFraction: math.Float64frombits(w[2]), BurstRate: math.Float64frombits(w[3]),
			BurstWidth: sim.Time(w[4]), LoadWave: math.Float64frombits(w[5]),
			WavePeriod: sim.Time(w[6]), Seed: seed,
		}
		if cfg.QPS > 5e4 || cfg.Span > sim.Second || cfg.BurstRate > 5e4 || cfg.BurstWidth > sim.Second {
			return
		}
		if err := cfg.validate(); err != nil {
			if _, serr := NewStream(cfg); serr == nil {
				t.Fatalf("validate refused %+v (%v), NewStream accepted it", cfg, err)
			}
			return
		}
		// The reference converts each gap to sim.Time before comparing it.
		// A draw reaches about 37 means, so that can wrap once a mean gap
		// passes ~2.5e17 ns; past 1e17 (3 years) it cannot referee.
		if bg := cfg.QPS * (1 - cfg.BurstFraction); bg > 0 && 1e9/(bg*(1+cfg.LoadWave)) > 1e17 ||
			cfg.BurstFraction > 0 && 1e9/cfg.BurstRate > 1e17 {
			return
		}
		want := eagerReference(cfg)
		if _, err := NewStream(cfg); (err == nil) != (len(want) > 0) {
			t.Fatalf("%+v: NewStream error %v with %d reference events", cfg, err, len(want))
		}
		if len(want) > 0 {
			requireStreamMatchesReference(t, cfg, 2)
		}
	})
}
