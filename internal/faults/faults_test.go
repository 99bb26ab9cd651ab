package faults

import (
	"math"
	"testing"

	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

func TestParsePlanRoundTrip(t *testing.T) {
	in := "hfail=0.05,hdelay=0.02,drop=0.01,stale=0.03,noise=0.1,stall=0.001,crash=0.0005," +
		"hdelaymean=2ms,hdelayp99=10ms,stalldur=60ms,restartdur=250ms,losemodel=true"
	p, err := ParsePlan(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.HypercallFailProb != 0.05 || p.PollDropProb != 0.01 || p.CrashProb != 0.0005 {
		t.Fatalf("parsed plan wrong: %+v", p)
	}
	if p.StallDur != 60*sim.Millisecond || p.RestartDur != 250*sim.Millisecond {
		t.Fatalf("parsed durations wrong: %+v", p)
	}
	if !p.LoseModel {
		t.Fatal("losemodel not parsed")
	}
	// String renders back into something ParsePlan accepts and that
	// reproduces the same plan.
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	if p2 != p {
		t.Fatalf("round trip changed plan:\n %+v\n %+v", p, p2)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"hfail",             // not key=value
		"bogus=1",           // unknown key
		"hfail=x",           // not a float
		"hfail=1.5",         // probability out of range
		"drop=-0.1",         // negative probability
		"stalldur=abc",      // not a duration
		"stalldur=-5ms",     // negative duration
		"losemodel=perhaps", // not a bool
		"scrash=1.5",        // fleet probability out of range
		"scrash=-0.1",       // negative fleet probability
		"gdrop=maybe",       // fleet probability not a float
		"rstale=",           // empty value
		"rloss=2",           // fleet probability out of range
		"srestartdur=fast",  // fleet duration not a duration
		"srestartdur=-1s",   // negative fleet duration
		"gdelaydur=10",      // duration without a unit
		"gdelay==0.1",       // double separator
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestParsePlanFleetRoundTrip(t *testing.T) {
	in := "scrash=0.002,gdrop=0.05,gdelay=0.1,rstale=0.03,rloss=0.01," +
		"srestartdur=500ms,gdelaydur=10ms"
	p, err := ParsePlan(in)
	if err != nil {
		t.Fatal(err)
	}
	if p.ServerCrashProb != 0.002 || p.GrantDropProb != 0.05 || p.GrantDelayProb != 0.1 ||
		p.ReadStaleProb != 0.03 || p.ReconcileLossProb != 0.01 {
		t.Fatalf("parsed fleet plan wrong: %+v", p)
	}
	if p.ServerRestartDur != 500*sim.Millisecond || p.GrantDelayDur != 10*sim.Millisecond {
		t.Fatalf("parsed fleet durations wrong: %+v", p)
	}
	if p.AgentEnabled() {
		t.Fatal("fleet-only plan reports agent faults enabled")
	}
	if !p.FleetEnabled() || !p.Enabled() {
		t.Fatal("fleet plan not enabled")
	}
	p2, err := ParsePlan(p.String())
	if err != nil {
		t.Fatalf("re-parsing %q: %v", p.String(), err)
	}
	if p2 != p {
		t.Fatalf("round trip changed plan:\n %+v\n %+v", p, p2)
	}
	// A mixed agent+fleet plan round-trips too.
	mixed, err := ParsePlan("crash=0.01,scrash=0.001,gdrop=0.2")
	if err != nil {
		t.Fatal(err)
	}
	if !mixed.AgentEnabled() || !mixed.FleetEnabled() {
		t.Fatalf("mixed plan enable split wrong: %+v", mixed)
	}
	if m2, err := ParsePlan(mixed.String()); err != nil || m2 != mixed {
		t.Fatalf("mixed round trip: %v / %+v vs %+v", err, m2, mixed)
	}
}

func TestScaleCoversFleetProbabilities(t *testing.T) {
	p := Plan{ServerCrashProb: 0.3, GrantDropProb: 0.01, ReadStaleProb: 0.5,
		ReconcileLossProb: 0.2, GrantDelayProb: 0.1, ServerRestartDur: 500 * sim.Millisecond}
	s := p.Scale(4)
	if s.ServerCrashProb != 1 || s.ReadStaleProb != 1 {
		t.Fatalf("scaled fleet probs not clamped: %+v", s)
	}
	if s.GrantDropProb != 0.04 {
		t.Fatalf("scaled gdrop %v, want 0.04", s.GrantDropProb)
	}
	if s.ServerRestartDur != p.ServerRestartDur {
		t.Fatal("Scale must not touch fleet durations")
	}
	if z := p.Scale(0); z.FleetEnabled() {
		t.Fatal("zero-scaled fleet plan still enabled")
	}
}

func TestFleetInjectorDeterministicFromSeed(t *testing.T) {
	plan := Plan{ServerCrashProb: 0.1, GrantDropProb: 0.2, GrantDelayProb: 0.3,
		ReadStaleProb: 0.15, ReconcileLossProb: 0.25}
	type draw struct {
		crash       sim.Time
		drop        bool
		delay       sim.Time
		stale, loss bool
	}
	run := func(seed uint64) []draw {
		inj, err := NewFleetInjector(plan, simrng.New(seed), func() sim.Time { return 0 }, nil)
		if err != nil {
			t.Fatal(err)
		}
		var out []draw
		for i := 0; i < 200; i++ {
			var d draw
			d.crash = inj.CrashTick(i % 4)
			d.drop, d.delay = inj.GrantFault(i % 4)
			d.stale = inj.ReadStale(i % 4)
			d.loss = inj.ReconcileLoss(i % 4)
			out = append(out, d)
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs for identical seeds: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fleet fault schedules")
	}
}

func TestFleetInjectorZeroPlanDrawsNothing(t *testing.T) {
	// A zero-probability plan must consume no RNG state: fault-free fleet
	// runs stay byte-identical to runs without the injector in the loop.
	rng := simrng.New(42)
	before := rng.Uint64()
	rng = simrng.New(42)
	inj, err := NewFleetInjector(Plan{}, rng, func() sim.Time { return 0 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if inj.CrashTick(i) != 0 {
			t.Fatal("zero plan crashed a server")
		}
		if drop, delay := inj.GrantFault(i); drop || delay != 0 {
			t.Fatal("zero plan faulted a grant")
		}
		if inj.ReadStale(i) || inj.ReconcileLoss(i) {
			t.Fatal("zero plan faulted a read or reconcile")
		}
	}
	if inj.Total() != 0 {
		t.Fatalf("zero plan injected %d faults", inj.Total())
	}
	if got := rng.Uint64(); got != before {
		t.Fatalf("zero plan consumed RNG state: next draw %d, want %d", got, before)
	}
}

func TestFleetInjectorEmitsObserverEvents(t *testing.T) {
	ring := obs.NewRing(64)
	inj, err := NewFleetInjector(
		Plan{ServerCrashProb: 1, GrantDropProb: 1, ReadStaleProb: 1, ReconcileLossProb: 1},
		simrng.New(1), func() sim.Time { return 5 * sim.Millisecond }, ring)
	if err != nil {
		t.Fatal(err)
	}
	if down := inj.CrashTick(3); down != 500*sim.Millisecond {
		t.Fatalf("CrashTick downtime %v, want default 500ms", down)
	}
	inj.GrantFault(2)
	inj.ReadStale(1)
	inj.ReconcileLoss(0)
	recs := ring.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d fault events, want 4", len(recs))
	}
	wantKinds := []obs.FaultKind{
		obs.FaultServerCrash, obs.FaultGrantDrop, obs.FaultReadStale, obs.FaultReconcileLoss,
	}
	wantServers := []int{3, 2, 1, 0}
	for i, rec := range recs {
		if rec.Kind != obs.KindFaultInjected {
			t.Fatalf("event %d kind %v", i, rec.Kind)
		}
		e := rec.FaultInjected
		if e.Kind != wantKinds[i] || e.Delta != wantServers[i] || e.At != 5*sim.Millisecond {
			t.Fatalf("event %d = %+v, want kind %v server %d", i, e, wantKinds[i], wantServers[i])
		}
	}
	if got := inj.CountsString(); got == "none" {
		t.Fatal("counts empty after injections")
	}
}

func TestParsePlanEmptyAndZero(t *testing.T) {
	p, err := ParsePlan("")
	if err != nil {
		t.Fatal(err)
	}
	if p.Enabled() {
		t.Fatal("empty spec produced an enabled plan")
	}
	if got := p.String(); got != "none" {
		t.Fatalf("zero plan renders %q, want none", got)
	}
}

func TestScaleClampsProbabilities(t *testing.T) {
	p := Plan{HypercallFailProb: 0.4, PollDropProb: 0.01, StallDur: 60 * sim.Millisecond}
	s := p.Scale(4)
	if s.HypercallFailProb != 1 {
		t.Fatalf("scaled hfail %v, want clamped 1", s.HypercallFailProb)
	}
	if s.PollDropProb != 0.04 {
		t.Fatalf("scaled drop %v, want 0.04", s.PollDropProb)
	}
	if s.StallDur != p.StallDur {
		t.Fatal("Scale must not touch durations")
	}
	if z := p.Scale(0); z.Enabled() {
		t.Fatal("zero-scaled plan still enabled")
	}
}

func TestDefaultsFilledOnlyForEnabledClasses(t *testing.T) {
	inj, err := NewInjector(Plan{HypercallDelayProb: 0.1, StallProb: 0.1, CrashProb: 0.1},
		simrng.New(1), func() sim.Time { return 0 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := inj.Plan()
	if p.HypercallDelayMean != 2*sim.Millisecond || p.HypercallDelayP99 != 10*sim.Millisecond {
		t.Fatalf("delay defaults not filled: %+v", p)
	}
	if p.StallDur != 60*sim.Millisecond || p.RestartDur != 250*sim.Millisecond {
		t.Fatalf("agent-fault defaults not filled: %+v", p)
	}
	// A disabled class keeps its zero durations.
	inj2, err := NewInjector(Plan{PollDropProb: 0.1}, simrng.New(1), func() sim.Time { return 0 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p2 := inj2.Plan(); p2.StallDur != 0 || p2.HypercallDelayMean != 0 {
		t.Fatalf("defaults filled for disabled classes: %+v", p2)
	}
}

func TestNewInjectorRejectsInvalidPlan(t *testing.T) {
	if _, err := NewInjector(Plan{CrashProb: 2}, simrng.New(1), func() sim.Time { return 0 }, nil); err == nil {
		t.Fatal("probability >1 accepted")
	}
	if _, err := NewInjector(Plan{StallDur: -1}, simrng.New(1), func() sim.Time { return 0 }, nil); err == nil {
		t.Fatal("negative duration accepted")
	}
}

func TestDeterministicFromSeed(t *testing.T) {
	plan := Plan{
		HypercallFailProb: 0.3, HypercallDelayProb: 0.3,
		PollDropProb: 0.05, PollStaleProb: 0.05, PollNoiseProb: 0.1,
		StallProb: 0.2, CrashProb: 0.1,
	}
	run := func(seed uint64) ([]bool, []sim.Time, []int, []core0) {
		inj, err := NewInjector(plan, simrng.New(seed), func() sim.Time { return 0 }, nil)
		if err != nil {
			t.Fatal(err)
		}
		var fails []bool
		var extras []sim.Time
		var polls []int
		var wins []core0
		for k := 0; k < 200; k++ {
			f, e := inj.ResizeFault()
			fails = append(fails, f)
			extras = append(extras, e)
			polls = append(polls, inj.SamplePoll(k%8, 8))
			w := inj.WindowFault()
			wins = append(wins, core0{w.Crash, w.Stall, w.Restart})
		}
		return fails, extras, polls, wins
	}
	f1, e1, p1, w1 := run(42)
	f2, e2, p2, w2 := run(42)
	for k := range f1 {
		if f1[k] != f2[k] || e1[k] != e2[k] || p1[k] != p2[k] || w1[k] != w2[k] {
			t.Fatalf("same seed diverged at draw %d", k)
		}
	}
	f3, _, p3, _ := run(43)
	same := true
	for k := range f1 {
		if f1[k] != f3[k] || p1[k] != p3[k] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 200-draw schedule")
	}
}

type core0 struct {
	crash   bool
	stall   sim.Time
	restart sim.Time
}

func TestSamplePollBoundsAndKinds(t *testing.T) {
	const total = 8
	inj, err := NewInjector(Plan{PollDropProb: 0.1, PollStaleProb: 0.1, PollNoiseProb: 0.5},
		simrng.New(7), func() sim.Time { return 0 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5000; k++ {
		busy := k % (total + 1)
		got := inj.SamplePoll(busy, total)
		if got != -1 && (got < 0 || got > total) {
			t.Fatalf("delivered reading %d outside [0,%d]", got, total)
		}
	}
	c := inj.Counts()
	for _, kind := range []obs.FaultKind{obs.FaultPollDrop, obs.FaultPollStale, obs.FaultPollNoise} {
		if c[kind] == 0 {
			t.Errorf("no %v injected across 5000 polls at prob >= 0.1", kind)
		}
	}
	if inj.Total() != c[obs.FaultPollDrop]+c[obs.FaultPollStale]+c[obs.FaultPollNoise] {
		t.Fatal("Total disagrees with Counts")
	}
}

func TestStaleDeliversPreviousReading(t *testing.T) {
	// With stale probability 1 every reading after the first repeats the
	// previously delivered one.
	inj, err := NewInjector(Plan{PollStaleProb: 1}, simrng.New(3), func() sim.Time { return 0 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := inj.SamplePoll(5, 8); got != 0 {
		// Nothing delivered yet; lastBusy starts at 0.
		t.Fatalf("first stale reading %d, want 0", got)
	}
	if got := inj.SamplePoll(7, 8); got != 0 {
		t.Fatalf("second stale reading %d, want sticky 0", got)
	}
}

func TestCrashTakesPrecedenceOverStall(t *testing.T) {
	inj, err := NewInjector(Plan{StallProb: 1, CrashProb: 1, LoseModel: true},
		simrng.New(9), func() sim.Time { return 0 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 50; k++ {
		f := inj.WindowFault()
		if !f.Crash {
			t.Fatalf("window %d: crash prob 1 did not crash", k)
		}
		if f.Stall != 0 {
			t.Fatalf("window %d: crash carries a stall", k)
		}
		if f.Restart != inj.Plan().RestartDur || !f.LoseModel {
			t.Fatalf("window %d: fault %+v", k, f)
		}
	}
	c := inj.Counts()
	if c[obs.FaultAgentCrash] != 50 || c[obs.FaultAgentStall] != 0 {
		t.Fatalf("counts %v", c)
	}
}

func TestInjectorEmitsObserverEvents(t *testing.T) {
	ring := obs.NewRing(1 << 10)
	now := sim.Time(0)
	inj, err := NewInjector(Plan{HypercallFailProb: 1, HypercallDelayProb: 1, PollDropProb: 1, CrashProb: 1},
		simrng.New(5), func() sim.Time { return now }, ring)
	if err != nil {
		t.Fatal(err)
	}
	now = 100 * sim.Millisecond
	fail, extra := inj.ResizeFault()
	if !fail || extra <= 0 {
		t.Fatalf("prob-1 resize fault: fail=%v extra=%v", fail, extra)
	}
	if got := inj.SamplePoll(4, 8); got != -1 {
		t.Fatalf("prob-1 drop delivered %d", got)
	}
	inj.WindowFault()

	recs := ring.Records()
	if len(recs) != 4 { // delay, fail, drop, crash
		t.Fatalf("%d fault events, want 4", len(recs))
	}
	kinds := map[obs.FaultKind]bool{}
	for _, r := range recs {
		if r.Kind != obs.KindFaultInjected {
			t.Fatalf("unexpected record kind %v", r.Kind)
		}
		e := r.FaultInjected
		if e.At != 100*sim.Millisecond {
			t.Fatalf("event stamped %v, want 100ms", e.At)
		}
		kinds[e.Kind] = true
	}
	for _, k := range []obs.FaultKind{obs.FaultHypercallDelay, obs.FaultHypercallFail, obs.FaultPollDrop, obs.FaultAgentCrash} {
		if !kinds[k] {
			t.Errorf("missing %v event", k)
		}
	}
	if inj.CountsString() == "none" {
		t.Fatal("CountsString empty after injections")
	}
}

func TestCountsStringDeterministic(t *testing.T) {
	inj, err := NewInjector(Plan{PollDropProb: 1, HypercallFailProb: 1},
		simrng.New(11), func() sim.Time { return 0 }, nil)
	if err != nil {
		t.Fatal(err)
	}
	inj.SamplePoll(1, 8)
	inj.ResizeFault()
	a := inj.CountsString()
	b := inj.CountsString()
	if a != b || a == "none" {
		t.Fatalf("CountsString unstable: %q vs %q", a, b)
	}
}

// TestNonFiniteRejected: a non-finite probability used to pass both the
// parser and NewInjector (NaN compares false against every bound) and
// then injected nothing.
func TestNonFiniteRejected(t *testing.T) {
	for _, k := range Keys("") {
		for _, v := range []string{"NaN", "nan", "-NaN"} {
			if p, err := ParsePlan(k + "=" + v); err == nil {
				t.Errorf("ParsePlan(%s=%s) accepted as %q", k, v, p)
			}
		}
	}
	now := func() sim.Time { return 0 }
	nan := math.NaN()
	for _, p := range []Plan{{HypercallFailProb: nan}, {PollDropProb: nan}, {ServerCrashProb: nan}, {GrantDelayProb: nan}} {
		if _, err := NewInjector(p, simrng.New(1), now, nil); err == nil {
			t.Errorf("NewInjector accepted %+v", p)
		}
		if _, err := NewFleetInjector(p, simrng.New(1), now, nil); err == nil {
			t.Errorf("NewFleetInjector accepted %+v", p)
		}
	}
}

// TestNoneRoundTrips: the zero plan prints "none", and "none" parses
// back to the zero plan, through ParsePlan and through the text
// marshaling the CLI flags use.
func TestNoneRoundTrips(t *testing.T) {
	for _, in := range []string{"none", " none ", Plan{}.String()} {
		p, err := ParsePlan(in)
		if err != nil || p != (Plan{}) {
			t.Errorf("ParsePlan(%q) = %+v, %v; want the zero plan", in, p, err)
		}
	}
	want, err := ParsePlan("drop=0.01,stalldur=5ms,losemodel=true")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Plan{{}, want} {
		text, err := p.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		var back Plan
		if err := back.UnmarshalText(text); err != nil || back != p {
			t.Errorf("text round trip of %q gave %+v, %v", text, back, err)
		}
	}
}
