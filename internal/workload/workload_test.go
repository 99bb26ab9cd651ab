package workload

import (
	"math"
	"testing"

	"smartharvest/internal/hypervisor"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

func measureRate(t *testing.T, a Arrival, span sim.Time) float64 {
	t.Helper()
	var now sim.Time
	n := 0
	for now < span {
		gap, batch := a.Next(now)
		now += gap
		n += batch
	}
	return float64(n) / span.Seconds()
}

func TestPoissonRate(t *testing.T) {
	a := NewPoisson(simrng.New(1), 1000)
	got := measureRate(t, a, 60*sim.Second)
	if math.Abs(got-1000)/1000 > 0.05 {
		t.Fatalf("rate %v, want ~1000", got)
	}
}

func TestUniformRate(t *testing.T) {
	a := NewUniform(500)
	got := measureRate(t, a, 10*sim.Second)
	if math.Abs(got-500)/500 > 0.01 {
		t.Fatalf("rate %v, want 500", got)
	}
}

func TestBatchPoissonRateAndBatchMean(t *testing.T) {
	a := NewBatchPoisson(simrng.New(2), 40000, 6)
	got := measureRate(t, a, 30*sim.Second)
	if math.Abs(got-40000)/40000 > 0.05 {
		t.Fatalf("rate %v, want ~40000", got)
	}
	// Mean batch size ~6.
	sum, n := 0, 0
	for i := 0; i < 50000; i++ {
		_, b := a.Next(0)
		if b < 1 {
			t.Fatalf("batch %d < 1", b)
		}
		sum += b
		n++
	}
	mean := float64(sum) / float64(n)
	if math.Abs(mean-6) > 0.2 {
		t.Fatalf("mean batch %v, want ~6", mean)
	}
}

func TestMMPP2OverallRate(t *testing.T) {
	// Equal dwell: average rate = (100 + 1900)/2 = 1000.
	a := NewMMPP2(simrng.New(3), 100, 1900, 100*sim.Millisecond, 100*sim.Millisecond)
	got := measureRate(t, a, 120*sim.Second)
	if math.Abs(got-1000)/1000 > 0.1 {
		t.Fatalf("rate %v, want ~1000", got)
	}
}

func TestPhasedSwitchesRates(t *testing.T) {
	a := NewPhased(
		Phase{Duration: sim.Second, Arrival: NewUniform(100)},
		Phase{Duration: sim.Second, Arrival: NewUniform(1000)},
	)
	// Count arrivals in each second.
	var now sim.Time
	count := [3]int{}
	for now < 3*sim.Second {
		gap, b := a.Next(now)
		now += gap
		if now < 3*sim.Second {
			count[now/sim.Second] += b
		}
	}
	if count[0] < 90 || count[0] > 110 {
		t.Fatalf("phase0 count %d", count[0])
	}
	if count[1] < 900 || count[1] > 1100 {
		t.Fatalf("phase1 count %d", count[1])
	}
	// Last phase persists.
	if count[2] < 900 || count[2] > 1100 {
		t.Fatalf("phase2 count %d", count[2])
	}
}

func TestSquareWaveAlternates(t *testing.T) {
	a := NewSquareWave(1000, 100, 500*sim.Millisecond)
	gapHigh, _ := a.Next(0)
	gapLow, _ := a.Next(600 * sim.Millisecond)
	if gapHigh != sim.Millisecond || gapLow != 10*sim.Millisecond {
		t.Fatalf("gaps %v %v", gapHigh, gapLow)
	}
	// Second period mirrors the first.
	gap2, _ := a.Next(1100 * sim.Millisecond)
	if gap2 != sim.Millisecond {
		t.Fatalf("second period gap %v", gap2)
	}
}

func TestTraceReplayLoops(t *testing.T) {
	events := []TraceEvent{{At: 0, Batch: 2}, {At: 100, Batch: 1}, {At: 300, Batch: 0}}
	a := NewTraceReplay(events, 1000)
	type got struct {
		gap   sim.Time
		batch int
	}
	var first []got
	for i := 0; i < 6; i++ {
		g, b := a.Next(0)
		first = append(first, got{g, b})
	}
	want := []got{{0, 2}, {100, 1}, {200, 1}, {700, 2}, {100, 1}, {200, 1}}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("replay[%d] = %+v, want %+v", i, first[i], want[i])
		}
	}
}

func TestTraceReplayValidation(t *testing.T) {
	cases := []func(){
		func() { NewTraceReplay(nil, 10) },
		func() { NewTraceReplay([]TraceEvent{{At: 5}, {At: 3}}, 10) },
		func() { NewTraceReplay([]TraceEvent{{At: 50}}, 10) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestDeterministicService(t *testing.T) {
	d := Deterministic(5 * sim.Millisecond)
	for i := 0; i < 3; i++ {
		if d.Sample() != 5*sim.Millisecond {
			t.Fatal("deterministic varied")
		}
	}
}

func TestExpServiceMean(t *testing.T) {
	s := NewExpService(simrng.New(4), 100*sim.Microsecond)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(s.Sample())
	}
	mean := sum / n
	if math.Abs(mean-1e5)/1e5 > 0.03 {
		t.Fatalf("mean %v ns", mean)
	}
}

func TestLogNormalServiceMeanAndTail(t *testing.T) {
	s := NewLogNormalService(simrng.New(5), 60*sim.Microsecond, 4, 0)
	var sum float64
	var over int
	const n = 200000
	for i := 0; i < n; i++ {
		v := s.Sample()
		sum += float64(v)
		if v > 240*sim.Microsecond {
			over++
		}
	}
	mean := sum / n
	if math.Abs(mean-6e4)/6e4 > 0.05 {
		t.Fatalf("mean %v ns, want ~60000", mean)
	}
	frac := float64(over) / n
	if frac < 0.005 || frac > 0.02 {
		t.Fatalf("tail fraction above p99 target: %v, want ~0.01", frac)
	}
}

func TestLogNormalServiceCap(t *testing.T) {
	s := NewLogNormalService(simrng.New(6), sim.Millisecond, 10, 5*sim.Millisecond)
	for i := 0; i < 100000; i++ {
		if v := s.Sample(); v > 5*sim.Millisecond {
			t.Fatalf("cap violated: %v", v)
		}
	}
}

func TestBimodal(t *testing.T) {
	b := NewBimodal(simrng.New(7), Deterministic(sim.Millisecond), Deterministic(100*sim.Millisecond), 0.01)
	slow := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if b.Sample() == 100*sim.Millisecond {
			slow++
		}
	}
	frac := float64(slow) / n
	if math.Abs(frac-0.01) > 0.003 {
		t.Fatalf("slow fraction %v", frac)
	}
	wantMean := sim.Time(0.99*1e6 + 0.01*1e8)
	if b.Mean() != wantMean {
		t.Fatalf("analytic mean %v, want %v", b.Mean(), wantMean)
	}
}

func TestFanout(t *testing.T) {
	if FixedFanout(5).SampleFanout() != 5 {
		t.Fatal("fixed fanout")
	}
	if FixedFanout(0).SampleFanout() != 1 {
		t.Fatal("fanout floor")
	}
	r := NewRangeFanout(simrng.New(8), 2, 6)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.SampleFanout()
		if v < 2 || v > 6 {
			t.Fatalf("fanout %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 5 {
		t.Fatalf("fanout values seen: %v", seen)
	}
}

func newServerRig(t *testing.T, cores int) (*sim.Loop, *hypervisor.Machine, *hypervisor.VM) {
	t.Helper()
	loop := sim.NewLoop()
	cfg := hypervisor.DefaultConfig(cores)
	m, err := hypervisor.New(loop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetInitialSplit(cores)
	vm := m.AddVM("p", hypervisor.PrimaryGroup, cores, cores)
	return loop, m, vm
}

func TestServerEndToEnd(t *testing.T) {
	loop, _, vm := newServerRig(t, 4)
	rng := simrng.New(9)
	srv := NewServer(loop, vm, ServerConfig{
		Name:    "kv",
		Arrival: NewPoisson(rng.Split(), 5000),
		Service: NewLogNormalService(rng.Split(), 100*sim.Microsecond, 3, 0),
	})
	srv.Start()
	loop.RunUntil(5 * sim.Second)
	if srv.Completed() < 20000 {
		t.Fatalf("completed %d", srv.Completed())
	}
	// Underloaded (rho = 5000*100us/4 = 0.125): latency should be close
	// to service time; P50 within a few x of the mean service.
	p50 := srv.Latency().P50()
	if p50 < int64(20*sim.Microsecond) || p50 > int64(400*sim.Microsecond) {
		t.Fatalf("P50 %v unexpectedly far from service time", p50)
	}
	if srv.Latency().P99() < p50 {
		t.Fatal("P99 < P50")
	}
}

func TestServerFanoutLatencyIsMaxOfSubtasks(t *testing.T) {
	loop, _, vm := newServerRig(t, 8)
	// One request, fanout 4, deterministic 1ms subtasks on 8 free cores:
	// latency = ~1ms (parallel), not 4ms (serial).
	srv := NewServer(loop, vm, ServerConfig{
		Name:    "fan",
		Arrival: NewUniform(1), // first arrival at 1s
		Service: Deterministic(sim.Millisecond),
		Fanout:  FixedFanout(4),
	})
	srv.Start()
	loop.RunUntil(1500 * sim.Millisecond)
	if srv.Completed() != 1 {
		t.Fatalf("completed %d", srv.Completed())
	}
	lat := srv.Latency().Max()
	if lat < int64(sim.Millisecond) || lat > int64(1200*sim.Microsecond) {
		t.Fatalf("fanout latency %v, want ~1ms", lat)
	}
}

func TestServerWarmupDiscardsEarlySamples(t *testing.T) {
	loop, _, vm := newServerRig(t, 2)
	srv := NewServer(loop, vm, ServerConfig{
		Name:    "w",
		Arrival: NewUniform(1000),
		Service: Deterministic(100 * sim.Microsecond),
		Warmup:  sim.Second,
	})
	srv.Start()
	loop.RunUntil(2 * sim.Second)
	// ~2000 requests offered, only ~1000 post-warmup recorded.
	n := srv.Latency().Summarize().Count
	if n < 900 || n > 1100 {
		t.Fatalf("recorded %d samples, want ~1000", n)
	}
	if srv.Completed() < 1900 {
		t.Fatalf("completed %d", srv.Completed())
	}
}

func TestServerQueueingInflatesLatency(t *testing.T) {
	// Offered load > capacity on 1 core: latency must blow up well beyond
	// service time.
	loop, _, vm := newServerRig(t, 1)
	srv := NewServer(loop, vm, ServerConfig{
		Name:    "over",
		Arrival: NewUniform(2000),
		Service: Deterministic(sim.Millisecond), // rho = 2
	})
	srv.Start()
	loop.RunUntil(2 * sim.Second)
	if srv.Latency().P50() < int64(10*sim.Millisecond) {
		t.Fatalf("P50 %v; overload should queue heavily", srv.Latency().P50())
	}
}

func TestServerStartTwicePanics(t *testing.T) {
	loop, _, vm := newServerRig(t, 1)
	srv := NewServer(loop, vm, ServerConfig{
		Name: "x", Arrival: NewUniform(1), Service: Deterministic(1),
	})
	srv.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	srv.Start()
}

func TestServerPhaseLatencies(t *testing.T) {
	loop, _, vm := newServerRig(t, 4)
	srv := NewServer(loop, vm, ServerConfig{
		Name:    "phased",
		Arrival: NewUniform(1000),
		Service: Deterministic(100 * sim.Microsecond),
	})
	srv.ConfigurePhases([]sim.Time{sim.Second, 2 * sim.Second})
	srv.Start()
	loop.RunUntil(3 * sim.Second)
	if srv.NumPhases() != 3 {
		t.Fatalf("phases %d", srv.NumPhases())
	}
	total := uint64(0)
	for i := 0; i < 3; i++ {
		n := srv.PhaseLatency(i).Summarize().Count
		if n < 900 || n > 1100 {
			t.Fatalf("phase %d count %d, want ~1000", i, n)
		}
		total += n
	}
	if total != srv.Latency().Summarize().Count {
		t.Fatalf("phase counts %d != overall %d", total, srv.Latency().Summarize().Count)
	}
}

func TestConfigurePhases(t *testing.T) {
	loop, _, vm := newServerRig(t, 2)
	srv := NewServer(loop, vm, ServerConfig{
		Name: "late", Arrival: NewUniform(100), Service: Deterministic(sim.Millisecond),
	})
	srv.ConfigurePhases([]sim.Time{sim.Second})
	if srv.NumPhases() != 2 {
		t.Fatalf("phases %d", srv.NumPhases())
	}
	// Double configuration panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double ConfigurePhases did not panic")
			}
		}()
		srv.ConfigurePhases([]sim.Time{sim.Second})
	}()
	// Configuration after Start panics.
	srv2 := NewServer(loop, vm, ServerConfig{
		Name: "started", Arrival: NewUniform(100), Service: Deterministic(sim.Millisecond),
	})
	srv2.Start()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("ConfigurePhases after Start did not panic")
			}
		}()
		srv2.ConfigurePhases([]sim.Time{sim.Second})
	}()
	// Non-ascending boundaries panic.
	srv3 := NewServer(loop, vm, ServerConfig{
		Name: "bad", Arrival: NewUniform(100), Service: Deterministic(sim.Millisecond),
	})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("descending boundaries did not panic")
			}
		}()
		srv3.ConfigurePhases([]sim.Time{2 * sim.Second, sim.Second})
	}()
}

func TestServerStaggerDelaysSubtasks(t *testing.T) {
	loop, m, vm := newServerRig(t, 8)
	srv := NewServer(loop, vm, ServerConfig{
		Name:    "stagger",
		Arrival: NewUniform(1), // one request at 1s
		Service: Deterministic(10 * sim.Millisecond),
		Fanout:  FixedFanout(4),
		Stagger: Deterministic(2 * sim.Millisecond),
	})
	srv.Start()
	// Just after the request lands, only the first subtask has started.
	loop.RunUntil(sim.Second + sim.Millisecond)
	if got := m.BusyCores(0); got != 1 {
		t.Fatalf("busy %d right after arrival, want 1 (staggered)", got)
	}
	loop.RunUntil(sim.Second + 7*sim.Millisecond)
	if got := m.BusyCores(0); got != 4 {
		t.Fatalf("busy %d after stagger, want 4", got)
	}
	// Latency = stagger of last subtask + service.
	loop.RunUntil(2 * sim.Second)
	want := int64(2*sim.Millisecond + 10*sim.Millisecond)
	if got := srv.Latency().Max(); got < want || got > want+int64(sim.Millisecond) {
		t.Fatalf("latency %v, want ~%v", got, want)
	}
}
