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
	"cmp"
	"fmt"
	"io"
	"slices"
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

func (c *Config) validate() error {
	if c.QPS <= 0 || c.Span <= 0 {
		return fmt.Errorf("traces: QPS and Span must be positive")
	}
	if c.BurstFraction < 0 || c.BurstFraction > 1 {
		return fmt.Errorf("traces: BurstFraction %v out of [0,1]", c.BurstFraction)
	}
	if c.BurstFraction > 0 && (c.BurstRate <= 0 || c.BurstWidth <= 0) {
		return fmt.Errorf("traces: bursts need positive rate and width")
	}
	if c.LoadWave < 0 || c.LoadWave > 1 {
		return fmt.Errorf("traces: LoadWave %v out of [0,1]", c.LoadWave)
	}
	return nil
}

// Generate synthesizes a trace: background Poisson arrivals (optionally
// rate-modulated) overlaid with clustered bursts.
func Generate(cfg Config) ([]workload.TraceEvent, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	events := arrivals(cfg)
	// Events that tie on At are value-identical {At, Batch: 1}, so any
	// correct sort yields the same bytes; SortFunc skips sort.Slice's
	// reflective swapper.
	slices.SortFunc(events, func(a, b workload.TraceEvent) int { return cmp.Compare(a.At, b.At) })
	if len(events) == 0 {
		return nil, fmt.Errorf("traces: configuration produced an empty trace")
	}
	return events, nil
}

// arrivals draws the trace's events in generation order: the background
// stream, then the bursts.
func arrivals(cfg Config) []workload.TraceEvent {
	rng := simrng.New(cfg.Seed)
	var events []workload.TraceEvent

	// Background traffic.
	bgQPS := cfg.QPS * (1 - cfg.BurstFraction)
	if bgQPS > 0 {
		// Candidates are generated at the modulation envelope's peak rate
		// and thinned sinusoidally, so the accepted rate averages bgQPS.
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

	// Bursts: each burst carries a geometric number of requests spread
	// over BurstWidth.
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
