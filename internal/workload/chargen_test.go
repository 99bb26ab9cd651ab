package workload

import (
	"math"
	"testing"

	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

func TestClassRoundTrip(t *testing.T) {
	for _, c := range []Class{ClassFlat, ClassPeriodic, ClassBursty, ClassMixed} {
		got, err := ParseClass(c.String())
		if err != nil {
			t.Fatalf("ParseClass(%q): %v", c.String(), err)
		}
		if got != c {
			t.Fatalf("round trip %v -> %q -> %v", c, c.String(), got)
		}
	}
	if _, err := ParseClass("nope"); err == nil {
		t.Fatal("ParseClass accepted unknown class")
	}
	if s := Class(99).String(); s != "Class(99)" {
		t.Fatalf("unknown class String = %q", s)
	}
}

// TestClassTextCodec pins the text form a grid file and -tenants read a
// Class in: every name round-trips, what ParseClass refuses stays
// refused, and an undeclared class does not marshal.
func TestClassTextCodec(t *testing.T) {
	for _, name := range []string{"flat", "periodic", "bursty", "mixed"} {
		var c Class
		if err := c.UnmarshalText([]byte(name)); err != nil {
			t.Errorf("UnmarshalText(%q): %v", name, err)
		}
		if b, err := c.MarshalText(); err != nil || string(b) != name {
			t.Errorf("MarshalText(%v) = %q, %v; want %q", c, b, err, name)
		}
	}
	for _, name := range []string{"", "nope", "diurnal", "FLAT", " flat", "bursty,flat"} {
		c := ClassMixed
		if err := c.UnmarshalText([]byte(name)); err == nil || c != ClassMixed {
			t.Errorf("UnmarshalText(%q) accepted as %v", name, c)
		}
	}
	if b, err := Class(99).MarshalText(); err == nil {
		t.Errorf("Class(99) marshals to %q", b)
	}
}

// drain advances an arrival process over [0, horizon) and returns the
// total requests plus the raw event sequence.
func drain(a Arrival, horizon sim.Time) (int, []TraceEvent) {
	var (
		now    sim.Time
		total  int
		events []TraceEvent
	)
	for {
		gap, batch := a.Next(now)
		now += gap
		if now >= horizon {
			return total, events
		}
		total += batch
		events = append(events, TraceEvent{At: now, Batch: batch})
	}
}

// TestCharacterizedOfferedRate checks every class preset offers roughly
// its target average load — the presets differ in shape, not volume.
func TestCharacterizedOfferedRate(t *testing.T) {
	const (
		qps     = 20000.0
		horizon = 10 * sim.Second
	)
	for _, class := range []Class{ClassFlat, ClassPeriodic, ClassBursty, ClassMixed} {
		knobs := KnobsFor(class, qps)
		// Bursty classes deliver much of their volume in a handful of
		// heavy batches, so average several seeds to tame the variance.
		var sum float64
		const runs = 6
		for seed := uint64(0); seed < runs; seed++ {
			var shared *BurstSchedule
			if knobs.Correlation > 0 {
				shared = NewBurstSchedule(100+seed, knobs.BurstRate, horizon)
			}
			a := NewCharacterized(simrng.New(42+seed), knobs, shared)
			total, _ := drain(a, horizon)
			sum += float64(total) / (float64(horizon) / 1e9)
		}
		got := sum / runs
		if math.Abs(got-qps)/qps > 0.12 {
			t.Errorf("%v: offered %0.0f qps, want within 12%% of %0.0f", class, got, qps)
		}
	}
}

func TestCharacterizedDeterministic(t *testing.T) {
	for _, class := range []Class{ClassPeriodic, ClassBursty, ClassMixed} {
		knobs := KnobsFor(class, 5000)
		build := func() Arrival {
			var shared *BurstSchedule
			if knobs.Correlation > 0 {
				shared = NewBurstSchedule(11, knobs.BurstRate, 4*sim.Second)
			}
			return NewCharacterized(simrng.New(99), knobs, shared)
		}
		_, a := drain(build(), 4*sim.Second)
		_, b := drain(build(), 4*sim.Second)
		if len(a) != len(b) {
			t.Fatalf("%v: runs diverge: %d vs %d events", class, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%v: event %d diverges: %+v vs %+v", class, i, a[i], b[i])
			}
		}
	}
}

// TestBurstCorrelation checks the correlation knob does what it claims:
// at Correlation=1 every VM fires a burst at every shared epoch, and
// more correlation means more cross-VM co-bursting.
func TestBurstCorrelation(t *testing.T) {
	const horizon = 8 * sim.Second
	shared := NewBurstSchedule(5, 6, horizon)
	if len(shared.Epochs()) == 0 {
		t.Fatal("empty shared schedule")
	}

	burstsAt := func(corr float64, seed uint64) map[sim.Time]bool {
		knobs := CharKnobs{BaseQPS: 1, BurstRate: 6, BurstMean: 4, Correlation: corr}
		b := newBurster(simrng.New(seed), knobs, shared)
		at := make(map[sim.Time]bool)
		var now sim.Time
		for {
			gap, batch := b.Next(now)
			now += gap
			if now >= horizon {
				return at
			}
			if batch > 0 {
				at[now] = true
			}
		}
	}

	// Full correlation: both VMs burst exactly at the shared epochs.
	a, b := burstsAt(1, 1), burstsAt(1, 2)
	for _, e := range shared.Epochs() {
		if !a[e] || !b[e] {
			t.Fatalf("Correlation=1: epoch %v missed (a=%v b=%v)", e, a[e], b[e])
		}
	}

	overlap := func(corr float64) int {
		a, b := burstsAt(corr, 1), burstsAt(corr, 2)
		n := 0
		for at := range a {
			if b[at] {
				n++
			}
		}
		return n
	}
	if hi, lo := overlap(0.9), overlap(0); hi <= lo {
		t.Errorf("overlap(corr=0.9)=%d not above overlap(corr=0)=%d", hi, lo)
	}
}

func TestBurstSchedulePeakEpochs(t *testing.T) {
	s := NewBurstSchedule(3, 10, 2*sim.Second)
	all := s.Epochs()
	got := s.PeakEpochs(0, 2*sim.Second)
	if len(got) != len(all) {
		t.Fatalf("PeakEpochs(full span) = %d epochs, want %d", len(got), len(all))
	}
	mid := sim.Second
	left, right := s.PeakEpochs(0, mid), s.PeakEpochs(mid, 2*sim.Second)
	if len(left)+len(right) != len(all) {
		t.Fatalf("split %d+%d != %d", len(left), len(right), len(all))
	}
	for _, e := range left {
		if e >= mid {
			t.Fatalf("left epoch %v >= %v", e, mid)
		}
	}
}

func TestKnobsForSmallRateStillValid(t *testing.T) {
	// Tiny rates must not produce BurstMean < 1 (validate would panic).
	for _, class := range []Class{ClassPeriodic, ClassBursty, ClassMixed} {
		KnobsFor(class, 10).validate()
	}
}

func TestNewCharacterizedRejectsMissingSchedule(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Correlation > 0 with nil schedule did not panic")
		}
	}()
	NewCharacterized(simrng.New(1), CharKnobs{BaseQPS: 100, BurstRate: 2, BurstMean: 4, Correlation: 0.5}, nil)
}
