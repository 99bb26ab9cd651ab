// Package workload provides the load-generation primitives the simulated
// applications are built from: arrival processes (open-loop), service-time
// distributions, and a generic latency-critical request server that runs
// inside a simulated VM.
package workload

import (
	"fmt"

	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// Arrival is an open-loop arrival process. Next returns the gap until the
// next arrival event and how many requests arrive together at that event
// (batch arrivals model the short-term query bursts that make peak core
// usage so much higher than average usage — see Table 1 of the paper).
type Arrival interface {
	Next(now sim.Time) (gap sim.Time, batch int)
}

// Poisson is a Poisson arrival process with single arrivals.
type Poisson struct {
	rng  *simrng.Rand
	mean float64 // mean gap in ns
}

// NewPoisson returns a Poisson process with the given rate in requests per
// second.
func NewPoisson(rng *simrng.Rand, qps float64) *Poisson {
	if qps <= 0 {
		panic(fmt.Sprintf("workload: non-positive rate %v", qps))
	}
	return &Poisson{rng: rng, mean: 1e9 / qps}
}

// Next implements Arrival.
func (p *Poisson) Next(sim.Time) (sim.Time, int) {
	return sim.Time(p.rng.Exp(p.mean)), 1
}

// BatchPoisson is a compound Poisson process: batch events arrive with
// exponential gaps and each event carries 1+Geometric(p) requests, so the
// offered rate is eventRate * meanBatch. This is the main source of the
// sub-25ms bursts the paper's learner must anticipate.
type BatchPoisson struct {
	rng     *simrng.Rand
	meanGap float64
	geomP   float64
}

// NewBatchPoisson returns a compound Poisson process with the given total
// request rate (qps) and mean batch size (>= 1).
func NewBatchPoisson(rng *simrng.Rand, qps, meanBatch float64) *BatchPoisson {
	if qps <= 0 || meanBatch < 1 {
		panic(fmt.Sprintf("workload: bad BatchPoisson params qps=%v batch=%v", qps, meanBatch))
	}
	eventRate := qps / meanBatch
	// batch = 1 + Geometric(p), mean = 1 + (1-p)/p = 1/p.
	return &BatchPoisson{
		rng:     rng,
		meanGap: 1e9 / eventRate,
		geomP:   1 / meanBatch,
	}
}

// Next implements Arrival.
func (b *BatchPoisson) Next(sim.Time) (sim.Time, int) {
	gap := sim.Time(b.rng.Exp(b.meanGap))
	batch := 1 + b.rng.Geometric(b.geomP)
	return gap, batch
}

// MMPP2 is a two-state Markov-modulated Poisson process: a "calm" state
// and a "bursty" state, each with its own arrival rate and exponentially
// distributed dwell time. It produces the aperiodic multi-millisecond load
// swings that stress the short-term safeguard.
type MMPP2 struct {
	rng       *simrng.Rand
	meanGap   [2]float64 // per-state mean inter-arrival gap (ns)
	meanDwell [2]float64 // per-state mean dwell (ns)
	state     int
	stateEnds sim.Time
}

// NewMMPP2 builds a two-state process. Rates are per-second; dwells are
// mean state durations.
func NewMMPP2(rng *simrng.Rand, calmQPS, burstQPS float64, calmDwell, burstDwell sim.Time) *MMPP2 {
	if calmQPS <= 0 || burstQPS <= 0 || calmDwell <= 0 || burstDwell <= 0 {
		panic("workload: bad MMPP2 params")
	}
	return &MMPP2{
		rng:       rng,
		meanGap:   [2]float64{1e9 / calmQPS, 1e9 / burstQPS},
		meanDwell: [2]float64{float64(calmDwell), float64(burstDwell)},
	}
}

// Next implements Arrival. It integrates the piecewise-constant rate
// exactly: a unit-exponential amount of "hazard" is consumed across state
// dwells until the next arrival lands, so no arrivals are lost at state
// boundaries.
func (m *MMPP2) Next(now sim.Time) (sim.Time, int) {
	if m.stateEnds == 0 {
		m.stateEnds = now + sim.Time(m.rng.Exp(m.meanDwell[m.state]))
	}
	t := now
	need := m.rng.Exp(1) // unit-exponential hazard to consume
	for {
		ratePerNs := 1 / m.meanGap[m.state]
		if t < m.stateEnds {
			capacity := float64(m.stateEnds-t) * ratePerNs
			if need <= capacity {
				at := t + sim.Time(need/ratePerNs)
				return at - now, 1
			}
			need -= capacity
		}
		t = m.stateEnds
		m.state = 1 - m.state
		m.stateEnds += sim.Time(m.rng.Exp(m.meanDwell[m.state]))
	}
}

// Phase pairs an arrival process with how long it should drive the load.
type Phase struct {
	Duration sim.Time
	Arrival  Arrival
}

// Phased switches between arrival processes on a schedule; the last phase
// runs forever. It models experiments like Table 2's 80k → 20k → 160k QPS
// Memcached run.
type Phased struct {
	phases []Phase
	starts []sim.Time
}

// NewPhased builds a phased arrival process. At least one phase required.
func NewPhased(phases ...Phase) *Phased {
	if len(phases) == 0 {
		panic("workload: NewPhased with no phases")
	}
	p := &Phased{phases: phases}
	var t sim.Time
	for _, ph := range phases {
		if ph.Duration <= 0 || ph.Arrival == nil {
			panic("workload: bad phase")
		}
		p.starts = append(p.starts, t)
		t += ph.Duration
	}
	return p
}

// Next implements Arrival by delegating to the phase containing now.
func (p *Phased) Next(now sim.Time) (sim.Time, int) {
	i := len(p.phases) - 1
	for ; i > 0; i-- {
		if now >= p.starts[i] {
			break
		}
	}
	return p.phases[i].Arrival.Next(now)
}

// SquareWave alternates between a high arrival rate and a low arrival rate
// with fixed half-periods, using evenly spaced arrivals within each level.
// Combined with a deterministic service time it produces the square-wave
// CPU usage pattern of the paper's Figure 7.
type SquareWave struct {
	highGap, lowGap sim.Time
	half            sim.Time
}

// NewSquareWave returns a square-wave arrival process: highQPS for the
// first half-period, lowQPS for the second, repeating.
func NewSquareWave(highQPS, lowQPS float64, halfPeriod sim.Time) *SquareWave {
	if highQPS <= 0 || lowQPS <= 0 || halfPeriod <= 0 {
		panic("workload: bad SquareWave params")
	}
	return &SquareWave{
		highGap: sim.Time(1e9 / highQPS),
		lowGap:  sim.Time(1e9 / lowQPS),
		half:    halfPeriod,
	}
}

// Next implements Arrival.
func (s *SquareWave) Next(now sim.Time) (sim.Time, int) {
	if (now/s.half)%2 == 0 {
		return s.highGap, 1
	}
	return s.lowGap, 1
}

// TraceEvent is one arrival event of a recorded (or synthesized) trace.
type TraceEvent struct {
	At    sim.Time
	Batch int
}

// TraceReplay replays a fixed sequence of arrival events, looping when it
// reaches the end (with the trace's total span as the loop period).
type TraceReplay struct {
	events []TraceEvent
	span   sim.Time
	idx    int
	base   sim.Time // accumulated loop offset
	last   sim.Time // previous event's absolute time
}

// NewTraceReplay builds a replayer. Events must be sorted by At and
// non-empty; span is the loop period (must be >= the last event's At).
func NewTraceReplay(events []TraceEvent, span sim.Time) *TraceReplay {
	if len(events) == 0 {
		panic("workload: empty trace")
	}
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			panic("workload: trace not sorted")
		}
	}
	if span < events[len(events)-1].At {
		panic("workload: span shorter than trace")
	}
	return &TraceReplay{events: events, span: span}
}

// Next implements Arrival.
func (t *TraceReplay) Next(sim.Time) (sim.Time, int) {
	if t.idx >= len(t.events) {
		t.idx = 0
		t.base += t.span
	}
	e := t.events[t.idx]
	t.idx++
	abs := t.base + e.At
	gap := abs - t.last
	if gap < 0 {
		gap = 0
	}
	t.last = abs
	batch := e.Batch
	if batch < 1 {
		batch = 1
	}
	return gap, batch
}
