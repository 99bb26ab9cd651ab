// Package traces synthesizes query-arrival traces with the burst structure
// of production search traffic. The paper drives IndexServe with real Bing
// query traces, which are not publicly available; these synthetic traces
// are the documented substitution (see DESIGN.md). What the harvesting
// controller actually experiences is the busy-core process the trace
// induces, so the generator is calibrated to reproduce the paper's Table 1
// statistics rather than any Bing-specific property.
package traces

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
	"smartharvest/internal/workload"
)

// Config controls trace synthesis.
type Config struct {
	// QPS is the average request rate.
	QPS float64
	// Span is the trace length; replay loops after Span.
	Span sim.Time
	// BurstFraction is the fraction of requests that arrive inside
	// bursts rather than as background Poisson traffic.
	BurstFraction float64
	// BurstRate is how many bursts occur per second.
	BurstRate float64
	// BurstWidth is the duration over which one burst's requests land.
	BurstWidth sim.Time
	// LoadWave, if positive, modulates the background rate sinusoidally
	// by ±LoadWave (0..1) over WavePeriod, modeling slow load drift.
	LoadWave   float64
	WavePeriod sim.Time
	// Seed drives generation.
	Seed uint64
}

// DefaultConfig returns a bursty search-like trace configuration.
func DefaultConfig(qps float64, span sim.Time) Config {
	return Config{
		QPS:           qps,
		Span:          span,
		BurstFraction: 0.1,
		BurstRate:     20,
		BurstWidth:    6 * sim.Millisecond,
		LoadWave:      0.3,
		WavePeriod:    20 * sim.Second,
		Seed:          1,
	}
}

// Rates (QPS, BurstRate) must lie in [minRate, maxRate]. maxRate is one
// arrival per nanosecond, the clock's tick, as apps.ParsePrimary allows;
// above it arrivals pile up on one instant. minRate, one arrival in about
// 32 years, keeps every mean gap finite (a small enough rate makes it
// +Inf, and an infinite mean draws NaN gaps).
const (
	minRate = 1e-9
	maxRate = 1e9
)

// validate rejects a configuration that cannot produce a trace. Every
// range test is written so that NaN fails it.
func (c *Config) validate() error {
	if !(c.QPS >= minRate && c.QPS <= maxRate) || c.Span <= 0 {
		return fmt.Errorf("traces: QPS %v must be in [%g, %g] and Span %v positive", c.QPS, minRate, maxRate, c.Span)
	}
	if !(c.BurstFraction >= 0 && c.BurstFraction <= 1) {
		return fmt.Errorf("traces: BurstFraction %v out of [0,1]", c.BurstFraction)
	}
	if c.BurstFraction > 0 && (!(c.BurstRate >= minRate && c.BurstRate <= maxRate) || c.BurstWidth <= 0) {
		return fmt.Errorf("traces: bursts need a rate in [%g, %g] (got %v) and a positive width", minRate, maxRate, c.BurstRate)
	}
	if !(c.LoadWave >= 0 && c.LoadWave <= 1) {
		return fmt.Errorf("traces: LoadWave %v out of [0,1]", c.LoadWave)
	}
	if c.LoadWave > 0 && c.WavePeriod <= 0 {
		return fmt.Errorf("traces: LoadWave needs a positive WavePeriod")
	}
	return nil
}

// Generate synthesizes one span of trace: background Poisson arrivals
// (optionally rate-modulated) overlaid with clustered bursts, sorted by
// time. It drains the first span of NewStream(cfg).
func Generate(cfg Config) ([]workload.TraceEvent, error) {
	s, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	var events []workload.TraceEvent
	for at, ok := s.next(); ok; at, ok = s.next() {
		events = append(events, workload.TraceEvent{At: at, Batch: 1})
	}
	return events, nil
}

// Stream is a synthetic trace as a workload.Arrival: it yields the same
// arrivals, looping every Span, as replaying Generate's events through
// workload.TraceReplay, but draws them as it goes and holds no trace.
//
// The trace is two random streams. The background stream draws from
// simrng.New(Seed); the burst stream continues from wherever the whole
// span's background draws leave that generator. So the stream runs two
// cursors, one per stream, and finds the burst cursor's starting state at
// construction by drawing one span of background without keeping it. A
// burst's arrivals are spread over BurstWidth in no order; they wait in
// pending, latest first, and a burst is expanded only once its start is
// no later than the earliest arrival still to come. Arrivals that tie on
// time are the same value, so merging the two streams gives exactly the
// trace that drawing both streams whole and sorting it by time gives.
type Stream struct {
	span     sim.Time
	wave     float64  // LoadWave
	waveLo   float64  // the least acceptance probability the wave gives
	period   sim.Time // WavePeriod
	width    int      // BurstWidth
	bgGap    float64  // mean background candidate gap, ns; 0 = no background
	burstGap float64  // mean gap between bursts, ns; 0 = no bursts
	burstP   float64  // geometric parameter of a burst's size

	bgStart, burstStart simrng.Rand // the cursors' states at the start of a span
	bg, burst           simrng.Rand

	bgAt    sim.Time   // next background arrival, or span when the span has none left
	burstAt sim.Time   // start of the next unexpanded burst, or span
	pending []sim.Time // expanded burst arrivals still to come, latest first

	base sim.Time // offset of the current loop
	last sim.Time // previous arrival's absolute time
}

// NewStream validates cfg and returns its trace as an endless arrival
// process. A configuration whose span holds no arrival is an error.
func NewStream(cfg Config) (*Stream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Stream{
		span:    cfg.Span,
		wave:    cfg.LoadWave,
		period:  cfg.WavePeriod,
		width:   int(cfg.BurstWidth),
		bgStart: *simrng.New(cfg.Seed),
	}
	if bgQPS := cfg.QPS * (1 - cfg.BurstFraction); bgQPS > 0 {
		// Candidates are generated at the modulation envelope's peak rate
		// and thinned sinusoidally, so the accepted rate averages bgQPS.
		s.bgGap = 1e9 / (bgQPS * (1 + cfg.LoadWave))
		s.waveLo = (1 - cfg.LoadWave) / (1 + cfg.LoadWave)
	}
	if cfg.BurstFraction > 0 {
		// Each burst carries a geometric number of requests.
		perBurst := cfg.QPS * cfg.BurstFraction / cfg.BurstRate
		if perBurst < 1 {
			perBurst = 1
		}
		s.burstGap = 1e9 / cfg.BurstRate
		s.burstP = 1 / perBurst
	}
	// The burst stream starts where one span of background draws leaves
	// the generator: draw them, keeping nothing.
	s.bg = s.bgStart
	for t := s.nextBackground(0); t < s.span; t = s.nextBackground(t) {
	}
	s.burstStart = s.bg
	s.restart()
	if _, ok := s.next(); !ok {
		return nil, fmt.Errorf("traces: configuration produced an empty trace")
	}
	s.restart()
	return s, nil
}

// Next implements workload.Arrival. Every arrival is a single request.
func (s *Stream) Next(sim.Time) (sim.Time, int) {
	at, ok := s.next()
	if !ok {
		s.base += s.span
		s.restart()
		at, _ = s.next()
	}
	abs := s.base + at
	gap := abs - s.last
	s.last = abs
	return gap, 1
}

// restart rewinds both cursors to the start of a span.
func (s *Stream) restart() {
	s.bg, s.burst = s.bgStart, s.burstStart
	s.pending = s.pending[:0]
	s.bgAt = s.nextBackground(0)
	s.burstAt = s.span
	if s.burstGap > 0 {
		s.burstAt = advance(&s.burst, 0, s.burstGap, s.span)
	}
}

// next returns the span's next arrival, in time, or false once the span
// has none left.
func (s *Stream) next() (sim.Time, bool) {
	for {
		at, fromBurst := s.bgAt, false
		if n := len(s.pending); n > 0 && s.pending[n-1] < at {
			at, fromBurst = s.pending[n-1], true
		}
		if s.burstAt < s.span && s.burstAt <= at {
			s.expandBurst()
			continue
		}
		if at == s.span {
			return 0, false
		}
		if fromBurst {
			s.pending = s.pending[:len(s.pending)-1]
		} else {
			s.bgAt = s.nextBackground(at)
		}
		return at, true
	}
}

// nextBackground returns the first accepted background arrival after t,
// or span.
func (s *Stream) nextBackground(t sim.Time) sim.Time {
	if s.bgGap == 0 {
		return s.span
	}
	for {
		t = advance(&s.bg, t, s.bgGap, s.span)
		if t == s.span || s.wave == 0 {
			return t
		}
		// Thin: accept with probability (1 + wave·sin) / (1 + wave), one
		// Float64 draw compared as Bool does. sinApprox never leaves
		// [-1, 1] and float rounding is monotone, so that probability is
		// never below waveLo, computed the same way at sin = -1; a draw
		// under waveLo is accepted without the three divisions.
		u := s.bg.Float64()
		if u < s.waveLo {
			return t
		}
		phase := float64(t%s.period) / float64(s.period)
		if u < (1+s.wave*sinApprox(phase))/(1+s.wave) {
			return t
		}
	}
}

// expandBurst draws the burst starting at burstAt into pending, dropping
// the arrivals that land past the span, and draws the next burst's start.
func (s *Stream) expandBurst() {
	t := s.burstAt
	n := 1 + s.burst.Geometric(s.burstP)
	for range n {
		if off := sim.Time(s.burst.Intn(s.width)); off < s.span-t {
			s.insert(t + off)
		}
	}
	s.burstAt = advance(&s.burst, t, s.burstGap, s.span)
}

// insert adds at to pending, keeping it sorted latest first.
func (s *Stream) insert(at sim.Time) {
	s.pending = append(s.pending, at)
	i := len(s.pending) - 1
	for ; i > 0 && s.pending[i-1] < at; i-- {
		s.pending[i] = s.pending[i-1]
	}
	s.pending[i] = at
}

// advance returns t plus an exponential gap of the given mean, or span
// if that is not before span. The comparison is made before the gap is
// converted, so a gap beyond the clock's range cannot wrap around.
func advance(rng *simrng.Rand, t sim.Time, mean float64, span sim.Time) sim.Time {
	if g := rng.Exp(mean); g < float64(span-t) {
		return t + sim.Time(g)
	}
	return span
}

// sinApprox is a cheap sine over one period phase in [0,1), accurate
// enough for load modulation (Bhaskara I approximation).
func sinApprox(phase float64) float64 {
	x := phase * 2 // half-periods
	neg := false
	if x >= 1 {
		x -= 1
		neg = true
	}
	// sin(pi*x) ≈ 16x(1-x) / (5 - 4x(1-x))
	v := 16 * x * (1 - x) / (5 - 4*x*(1-x))
	if neg {
		return -v
	}
	return v
}

// Write serializes a trace as "timestamp_ns batch" lines.
func Write(w io.Writer, events []workload.TraceEvent) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		if _, err := fmt.Fprintf(bw, "%d %d\n", int64(e.At), e.Batch); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read parses a trace written by Write.
func Read(r io.Reader) ([]workload.TraceEvent, error) {
	var events []workload.TraceEvent
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("traces: line %d: want 2 fields, got %d", line, len(fields))
		}
		at, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("traces: line %d: bad timestamp: %v", line, err)
		}
		batch, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("traces: line %d: bad batch: %v", line, err)
		}
		events = append(events, workload.TraceEvent{At: sim.Time(at), Batch: batch})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}
