package workload

import (
	"fmt"
	"math"
	"sort"

	"smartharvest/internal/grammar"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// This file is the workload-characterization scenario generator: instead
// of picking from the fixed application list, scenarios are described by
// the characterization knobs large-scale cloud studies use to cluster
// VMs — how diurnal the load is, how bursty it is, and how correlated
// bursts are across the VMs sharing a server. Classes are coarse presets
// over those knobs (flat / periodic / bursty / mixed); the predictor
// ablation sweeps predictor × class.
//
// Time scales follow the simulator's compressed clock: a "diurnal" cycle
// is seconds of virtual time (tens of 25 ms learning windows), the same
// compression the Figure 7 square wave uses.

// Class is a coarse workload-characterization class.
type Class int

const (
	// ClassFlat is stationary Poisson load: no periodic structure, no
	// burst process.
	ClassFlat Class = iota
	// ClassPeriodic is dominated by a sinusoidal (diurnal-style) rate
	// swing with mild burstiness.
	ClassPeriodic
	// ClassBursty is flat base load punctuated by heavy correlated
	// request bursts.
	ClassBursty
	// ClassMixed has both the periodic swing and the burst process — the
	// hardest class to predict.
	ClassMixed
)

// ClassNames is Class's name table.
var ClassNames = grammar.Enum[Class]{Pkg: "workload", What: "class",
	Names: []string{"flat", "periodic", "bursty", "mixed"}}

func (c Class) String() string { return ClassNames.String(c) }

// ParseClass is the inverse of String.
func ParseClass(s string) (Class, error) { return ClassNames.Parse(s) }

// MarshalText implements encoding.TextMarshaler.
func (c Class) MarshalText() ([]byte, error) { return ClassNames.MarshalText(c) }

// UnmarshalText implements encoding.TextUnmarshaler.
func (c *Class) UnmarshalText(text []byte) error { return ClassNames.UnmarshalText(c, text) }

// CharKnobs are the characterization knobs a generated workload is
// described by.
type CharKnobs struct {
	// BaseQPS is the mean request rate of the smooth component.
	BaseQPS float64
	// DiurnalAmplitude in [0, 1) scales the sinusoidal rate swing:
	// rate(t) = BaseQPS * (1 + A*sin(2πt/P)). Zero disables it.
	DiurnalAmplitude float64
	// DiurnalPeriod is the swing period P (compressed; default 2 s).
	DiurnalPeriod sim.Time
	// BurstRate is burst events per second; zero disables bursts.
	BurstRate float64
	// BurstMean is the mean requests per burst (>= 1 when BurstRate > 0).
	BurstMean float64
	// Correlation in [0, 1] is the fraction of a VM's bursts drawn from
	// the server-wide shared schedule rather than its private process —
	// the cross-VM correlation knob. With several VMs on one server,
	// correlated bursts land simultaneously and stack into tall machine
	// peaks, while uncorrelated bursts average out.
	Correlation float64
}

// KnobsFor returns the preset knobs for a class at a target total rate.
// The presets split qps between the smooth and burst components so every
// class offers roughly the same average load — what differs is its shape.
func KnobsFor(class Class, qps float64) CharKnobs {
	if qps <= 0 {
		panic(fmt.Sprintf("workload: non-positive rate %v", qps))
	}
	switch class {
	case ClassPeriodic:
		return CharKnobs{
			BaseQPS:          0.9 * qps,
			DiurnalAmplitude: 0.6,
			DiurnalPeriod:    2 * sim.Second,
			BurstRate:        2,
			BurstMean:        math.Max(1, 0.05*qps/2),
			Correlation:      0.2,
		}
	case ClassBursty:
		return CharKnobs{
			BaseQPS:     0.6 * qps,
			BurstRate:   8,
			BurstMean:   math.Max(1, 0.4*qps/8),
			Correlation: 0.7,
		}
	case ClassMixed:
		return CharKnobs{
			BaseQPS:          0.7 * qps,
			DiurnalAmplitude: 0.5,
			DiurnalPeriod:    2 * sim.Second,
			BurstRate:        5,
			BurstMean:        math.Max(1, 0.3*qps/5),
			Correlation:      0.5,
		}
	default: // ClassFlat
		return CharKnobs{BaseQPS: qps}
	}
}

// validate panics on malformed knobs (generator wiring bugs).
func (k CharKnobs) validate() {
	if k.BaseQPS <= 0 {
		panic(fmt.Sprintf("workload: non-positive BaseQPS %v", k.BaseQPS))
	}
	if k.DiurnalAmplitude < 0 || k.DiurnalAmplitude >= 1 {
		panic(fmt.Sprintf("workload: DiurnalAmplitude %v outside [0, 1)", k.DiurnalAmplitude))
	}
	if k.DiurnalAmplitude > 0 && k.DiurnalPeriod <= 0 {
		panic("workload: DiurnalAmplitude without DiurnalPeriod")
	}
	if k.BurstRate < 0 || (k.BurstRate > 0 && k.BurstMean < 1) {
		panic(fmt.Sprintf("workload: bad burst knobs rate=%v mean=%v", k.BurstRate, k.BurstMean))
	}
	if k.Correlation < 0 || k.Correlation > 1 {
		panic(fmt.Sprintf("workload: Correlation %v outside [0, 1]", k.Correlation))
	}
}

// BurstSchedule is a server-wide burst-epoch sequence, precomputed from
// its own seed so every VM sharing it sees the same epochs. The schedule
// is immutable after construction; each VM replays it with a private
// read cursor, so sharing one schedule across VMs is safe and draws
// nothing from any scenario RNG stream.
type BurstSchedule struct {
	epochs []sim.Time
}

// NewBurstSchedule precomputes Poisson burst epochs at the given rate
// (events per second) over [0, horizon).
func NewBurstSchedule(seed uint64, rate float64, horizon sim.Time) *BurstSchedule {
	if rate <= 0 || horizon <= 0 {
		panic(fmt.Sprintf("workload: bad BurstSchedule params rate=%v horizon=%v", rate, horizon))
	}
	rng := simrng.New(seed)
	meanGap := 1e9 / rate
	var epochs []sim.Time
	for t := sim.Time(rng.Exp(meanGap)); t < horizon; t += sim.Time(rng.Exp(meanGap)) {
		epochs = append(epochs, t)
	}
	return &BurstSchedule{epochs: epochs}
}

// Epochs returns the shared burst times (read-only).
func (b *BurstSchedule) Epochs() []sim.Time { return b.epochs }

// sinusoidal is a non-homogeneous Poisson arrival process with rate
// BaseQPS*(1 + A*sin(2πt/P)), sampled exactly by thinning against the
// peak rate (Lewis–Shedler): candidates arrive at the homogeneous peak
// rate and are accepted with probability rate(t)/peak. With A=0 every
// candidate is accepted and the process reduces to plain Poisson.
type sinusoidal struct {
	rng     *simrng.Rand
	baseQPS float64
	amp     float64
	period  float64 // ns
	peakGap float64 // mean gap at the peak rate, ns
}

func newSinusoidal(rng *simrng.Rand, baseQPS, amp float64, period sim.Time) *sinusoidal {
	s := &sinusoidal{
		rng:     rng,
		baseQPS: baseQPS,
		amp:     amp,
		peakGap: 1e9 / (baseQPS * (1 + amp)),
	}
	if amp > 0 {
		s.period = float64(period)
	}
	return s
}

// Next implements Arrival.
func (s *sinusoidal) Next(now sim.Time) (sim.Time, int) {
	t := now
	for {
		t += sim.Time(s.rng.Exp(s.peakGap))
		if s.amp == 0 {
			return t - now, 1
		}
		rate := s.baseQPS * (1 + s.amp*math.Sin(2*math.Pi*float64(t)/s.period))
		if s.rng.Float64()*s.baseQPS*(1+s.amp) <= rate {
			return t - now, 1
		}
	}
}

// burster emits burst batches from two sources: the shared server-wide
// schedule (each epoch joined with probability Correlation, decided
// up-front from the VM's private RNG, so different VMs join
// different-but-overlapping subsets) and a private Poisson process
// carrying the remaining (1-Correlation) share of the burst rate. Batch
// sizes are always drawn privately — correlation aligns burst times, not
// exact sizes.
type burster struct {
	rng      *simrng.Rand
	joined   []sim.Time // this VM's subset of the shared epochs
	idx      int
	privGap  float64 // mean private burst gap, ns; 0 = no private bursts
	privNext sim.Time
	geomP    float64
}

func newBurster(rng *simrng.Rand, knobs CharKnobs, shared *BurstSchedule) *burster {
	b := &burster{rng: rng, geomP: 1 / knobs.BurstMean}
	if shared != nil && knobs.Correlation > 0 {
		// One participation draw per epoch, in schedule order, so the
		// join pattern is fixed at construction and independent of how
		// the run interleaves arrivals.
		for _, at := range shared.epochs {
			if b.rng.Float64() < knobs.Correlation {
				b.joined = append(b.joined, at)
			}
		}
	}
	if privRate := knobs.BurstRate * (1 - knobs.Correlation); privRate > 0 {
		b.privGap = 1e9 / privRate
	}
	return b
}

// Next implements Arrival: the earlier of the next joined shared epoch
// and the next private burst fires. When both sources are exhausted it
// returns a quiet batch-0 beat (the merge layer skips those).
func (b *burster) Next(now sim.Time) (sim.Time, int) {
	const never = sim.Time(math.MaxInt64)
	for b.idx < len(b.joined) && b.joined[b.idx] <= now {
		b.idx++
	}
	sharedNext := never
	if b.idx < len(b.joined) {
		sharedNext = b.joined[b.idx]
	}
	privNext := never
	if b.privGap > 0 {
		if b.privNext <= now {
			b.privNext = now + sim.Time(b.rng.Exp(b.privGap))
		}
		privNext = b.privNext
	}
	next, fromShared := sharedNext, true
	if privNext < next {
		next, fromShared = privNext, false
	}
	if next == never {
		// Shared schedule ran out and there is no private process: go
		// quiet for a long beat rather than spinning.
		return sim.Second, 0
	}
	if fromShared {
		b.idx++
	} else {
		b.privNext = next + sim.Time(b.rng.Exp(b.privGap))
	}
	return next - now, 1 + b.rng.Geometric(b.geomP)
}

// merged interleaves two arrival processes into one stream.
type merged struct {
	a, b         Arrival
	nextA, nextB sim.Time
	batchA       int
	batchB       int
	primed       bool
}

func merge(a, b Arrival) *merged { return &merged{a: a, b: b} }

func (m *merged) prime(now sim.Time) {
	gapA, batchA := m.a.Next(now)
	gapB, batchB := m.b.Next(now)
	m.nextA, m.batchA = now+gapA, batchA
	m.nextB, m.batchB = now+gapB, batchB
	m.primed = true
}

// Next implements Arrival: the earlier of the two pending events fires
// and its source is re-armed from the event time.
func (m *merged) Next(now sim.Time) (sim.Time, int) {
	if !m.primed {
		m.prime(now)
	}
	for {
		if m.nextA <= m.nextB {
			at, batch := m.nextA, m.batchA
			gap, nb := m.a.Next(at)
			m.nextA, m.batchA = at+gap, nb
			if batch > 0 {
				return at - now, batch
			}
			continue
		}
		at, batch := m.nextB, m.batchB
		gap, nb := m.b.Next(at)
		m.nextB, m.batchB = at+gap, nb
		if batch > 0 {
			return at - now, batch
		}
	}
}

// NewCharacterized builds the arrival process described by knobs. The
// shared schedule may be nil when Correlation is zero; it must outlive
// the process. All randomness comes from rng, so one process per VM with
// split RNG streams keeps runs deterministic.
func NewCharacterized(rng *simrng.Rand, knobs CharKnobs, shared *BurstSchedule) Arrival {
	knobs.validate()
	if knobs.Correlation > 0 && shared == nil {
		panic("workload: Correlation > 0 needs a shared BurstSchedule")
	}
	smooth := newSinusoidal(rng, knobs.BaseQPS, knobs.DiurnalAmplitude, knobs.DiurnalPeriod)
	if knobs.BurstRate == 0 {
		return smooth
	}
	return merge(smooth, newBurster(rng, knobs, shared))
}

// PeakEpochs returns, for diagnostics and tests, the subset of epochs in
// [from, to) — handy for asserting cross-VM burst alignment.
func (b *BurstSchedule) PeakEpochs(from, to sim.Time) []sim.Time {
	lo := sort.Search(len(b.epochs), func(i int) bool { return b.epochs[i] >= from })
	hi := sort.Search(len(b.epochs), func(i int) bool { return b.epochs[i] >= to })
	return b.epochs[lo:hi]
}
