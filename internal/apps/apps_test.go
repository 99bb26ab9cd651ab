package apps

import (
	"testing"

	"smartharvest/internal/hypervisor"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

func rig(t testing.TB, cores int) (*sim.Loop, *hypervisor.Machine) {
	t.Helper()
	loop := sim.NewLoop()
	m, err := hypervisor.New(loop, hypervisor.DefaultConfig(cores))
	if err != nil {
		t.Fatal(err)
	}
	return loop, m
}

// measureBusy polls busy primary cores every 50us and returns the average
// and the mean of per-25ms-window peaks, mirroring the paper's Table 1
// methodology.
func measureBusy(loop *sim.Loop, m *hypervisor.Machine, span sim.Time) (avg, avgPeak float64) {
	const poll = 50 * sim.Microsecond
	const window = 25 * sim.Millisecond
	var sum float64
	var n int
	peak := 0
	var peaks []int
	tick := loop.NewTicker(0, poll, func() {
		b := m.BusyCores(hypervisor.PrimaryGroup)
		sum += float64(b)
		n++
		if b > peak {
			peak = b
		}
	})
	wtick := loop.NewTicker(window, window, func() {
		peaks = append(peaks, peak)
		peak = 0
	})
	loop.RunUntil(span)
	tick.Stop()
	wtick.Stop()
	var psum float64
	for _, p := range peaks {
		psum += float64(p)
	}
	return sum / float64(n), psum / float64(len(peaks))
}

// runPrimaryAlone runs a primary spec alone on a 10-core VM and returns
// (avg busy, avg peak busy, P99 ns).
func runPrimaryAlone(t *testing.T, spec PrimarySpec, span sim.Time) (float64, float64, int64) {
	t.Helper()
	loop, m := rig(t, 10)
	m.SetInitialSplit(10)
	vm := m.AddVM(spec.Name, hypervisor.PrimaryGroup, 10, 10)
	srv, err := spec.Build(loop, vm, simrng.New(42), sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	avg, avgPeak := measureBusy(loop, m, span)
	return avg, avgPeak, srv.Latency().P99()
}

func TestMemcachedCalibration(t *testing.T) {
	avg, peak, p99 := runPrimaryAlone(t, Memcached(40000), 10*sim.Second)
	// Paper Table 1: avg 2.3, peak 7.7. Allow generous tolerance; the
	// shape (peak >> avg) is what matters.
	if avg < 1.5 || avg > 3.2 {
		t.Errorf("memcached avg busy %v, want ~2.3", avg)
	}
	if peak < 5 || peak > 10 {
		t.Errorf("memcached avg peak %v, want ~7.7", peak)
	}
	// Nominal P99 should be sub-millisecond (paper: 421us at 40k).
	if p99 < int64(150*sim.Microsecond) || p99 > int64(1200*sim.Microsecond) {
		t.Errorf("memcached P99 %v ns, want sub-millisecond", p99)
	}
}

func TestIndexServeCalibration(t *testing.T) {
	avg, peak, p99 := runPrimaryAlone(t, IndexServe(500), 10*sim.Second)
	// Paper Table 1: avg 1.3, peak 7.
	if avg < 0.8 || avg > 2.2 {
		t.Errorf("indexserve avg busy %v, want ~1.3", avg)
	}
	if peak < 4 || peak > 9.5 {
		t.Errorf("indexserve avg peak %v, want ~7", peak)
	}
	// Millisecond-scale P99 (paper Figure 5: ~10ms allowed band).
	if p99 < int64(2*sim.Millisecond) || p99 > int64(30*sim.Millisecond) {
		t.Errorf("indexserve P99 %v, want ms-scale", sim.Time(p99))
	}
}

func TestMosesCalibration(t *testing.T) {
	avg, peak, p99 := runPrimaryAlone(t, Moses(400), 10*sim.Second)
	// Paper Table 1: avg 1.5, peak 5.2.
	if avg < 0.9 || avg > 2.4 {
		t.Errorf("moses avg busy %v, want ~1.5", avg)
	}
	if peak < 3 || peak > 8 {
		t.Errorf("moses avg peak %v, want ~5.2", peak)
	}
	// Hundreds-of-ms P99.
	if p99 < int64(100*sim.Millisecond) || p99 > int64(900*sim.Millisecond) {
		t.Errorf("moses P99 %v, want hundreds of ms", sim.Time(p99))
	}
}

func TestImgDNNCalibration(t *testing.T) {
	avg, peak, p99 := runPrimaryAlone(t, ImgDNN(2000), 10*sim.Second)
	// Paper Table 1: avg 1.7, peak 6.9.
	if avg < 1.0 || avg > 2.6 {
		t.Errorf("img-dnn avg busy %v, want ~1.7", avg)
	}
	if peak < 4 || peak > 9.5 {
		t.Errorf("img-dnn avg peak %v, want ~6.9", peak)
	}
	if p99 < int64(3*sim.Millisecond) || p99 > int64(60*sim.Millisecond) {
		t.Errorf("img-dnn P99 %v, want ~10-25ms", sim.Time(p99))
	}
}

func TestSquareWaveAlternation(t *testing.T) {
	loop, m := rig(t, 10)
	m.SetInitialSplit(10)
	vm := m.AddVM("sq", hypervisor.PrimaryGroup, 10, 10)
	spec := SquareWave(8, 1, 500*sim.Millisecond)
	srv, err := spec.Build(loop, vm, simrng.New(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	// Sample busy cores inside each half-period (mid-phase).
	var highBusy, lowBusy []int
	loop.NewTicker(250*sim.Millisecond, sim.Second, func() {
		highBusy = append(highBusy, m.BusyCores(hypervisor.PrimaryGroup))
	})
	loop.NewTicker(750*sim.Millisecond, sim.Second, func() {
		lowBusy = append(lowBusy, m.BusyCores(hypervisor.PrimaryGroup))
	})
	loop.RunUntil(5 * sim.Second)
	avgOf := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	h, l := avgOf(highBusy), avgOf(lowBusy)
	if h < 6 || l > 3 || h-l < 4 {
		t.Fatalf("square wave busy high=%v low=%v; want clear alternation", h, l)
	}
}

func TestCPUBullyConsumesAllCores(t *testing.T) {
	loop, m := rig(t, 4)
	m.SetInitialSplit(0) // all 4 cores to elastic
	vm := m.AddVM("bully", hypervisor.ElasticGroup, 4, 4)
	NewCPUBully(vm).Start()
	loop.RunUntil(2 * sim.Second)
	// With 4 cores for 2s the bully should execute ~8 core-seconds.
	got := vm.CPUTime().Seconds()
	if got < 7.9 || got > 8.01 {
		t.Fatalf("bully cpu time %v core-s, want ~8", got)
	}
}

func TestCPUBullyStartTwicePanics(t *testing.T) {
	_, m := rig(t, 2)
	m.SetInitialSplit(0)
	vm := m.AddVM("bully", hypervisor.ElasticGroup, 2, 2)
	b := NewCPUBully(vm)
	b.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	b.Start()
}

func TestBatchJobPhases(t *testing.T) {
	loop, m := rig(t, 2)
	m.SetInitialSplit(0)
	vm := m.AddVM("batch", hypervisor.ElasticGroup, 2, 2)
	var doneAt sim.Time = -1
	job := NewBatchJob("j", loop, vm, []BatchPhase{
		{Kind: CPUPhase, Work: 2 * sim.Second}, // 2 cores -> 1s
		{Kind: IOPhase, IOTime: 500 * sim.Millisecond},
		{Kind: CPUPhase, Work: sim.Second, Parallelism: 1}, // serial -> 1s
	}, func(at sim.Time) { doneAt = at })
	job.Start()
	loop.RunUntil(10 * sim.Second)
	if !job.Finished() {
		t.Fatal("job did not finish")
	}
	// 1s parallel + 0.5s IO + 1s serial = ~2.5s.
	if doneAt < 2400*sim.Millisecond || doneAt > 2700*sim.Millisecond {
		t.Fatalf("doneAt %v, want ~2.5s", doneAt)
	}
	if job.FinishedAt() != doneAt {
		t.Fatal("FinishedAt mismatch")
	}
}

func TestBatchJobScalesWithCores(t *testing.T) {
	run := func(cores int) sim.Time {
		loop, m := rig(t, cores)
		m.SetInitialSplit(0)
		vm := m.AddVM("batch", hypervisor.ElasticGroup, cores, cores)
		job := NewBatchJob("j", loop, vm, []BatchPhase{
			{Kind: CPUPhase, Work: 8 * sim.Second},
		}, nil)
		job.Start()
		loop.RunUntil(60 * sim.Second)
		if !job.Finished() {
			t.Fatal("not finished")
		}
		return job.FinishedAt()
	}
	t1, t4 := run(1), run(4)
	speedup := float64(t1) / float64(t4)
	if speedup < 3.7 || speedup > 4.05 {
		t.Fatalf("4-core speedup %v, want ~4 for embarrassingly parallel work", speedup)
	}
}

func TestHDInsightAmdahlCeiling(t *testing.T) {
	run := func(cores int) sim.Time {
		loop, m := rig(t, cores)
		m.SetInitialSplit(0)
		vm := m.AddVM("hdinsight", hypervisor.ElasticGroup, cores, cores)
		job := HDInsight(loop, vm, nil)
		job.Start()
		loop.RunUntil(300 * sim.Second)
		if !job.Finished() {
			t.Fatal("not finished")
		}
		return job.FinishedAt()
	}
	t1 := run(1)
	t10 := run(10)
	speedup := float64(t1) / float64(t10)
	// Serial fraction 120/(120+2400) = ~4.8% -> Amdahl cap ~6.9 at 10
	// cores; the paper reports 2-3x at partial harvesting.
	if speedup < 4 || speedup > 8 {
		t.Fatalf("hdinsight 10-core speedup %v", speedup)
	}
}

func TestTeraSortIOBoundCeiling(t *testing.T) {
	run := func(cores int) sim.Time {
		loop, m := rig(t, cores)
		m.SetInitialSplit(0)
		vm := m.AddVM("terasort", hypervisor.ElasticGroup, cores, cores)
		job := TeraSort(loop, vm, nil)
		job.Start()
		loop.RunUntil(300 * sim.Second)
		if !job.Finished() {
			t.Fatal("not finished")
		}
		return job.FinishedAt()
	}
	t1 := run(1)
	t10 := run(10)
	speedup := float64(t1) / float64(t10)
	// I/O keeps the ceiling low: (7+32+1)s serial-ish vs ~11.2s at 10
	// cores -> ~3.5x max; well below a pure-CPU job.
	if speedup < 2 || speedup > 4.5 {
		t.Fatalf("terasort 10-core speedup %v", speedup)
	}
}

func TestBatchJobValidation(t *testing.T) {
	loop, m := rig(t, 2)
	vm := m.AddVM("v", hypervisor.ElasticGroup, 2, 2)
	cases := [][]BatchPhase{
		nil,
		{{Kind: CPUPhase, Work: 0}},
		{{Kind: IOPhase, IOTime: 0}},
		{{Kind: PhaseKind(99), Work: 1}},
	}
	for i, phases := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d did not panic", i)
				}
			}()
			NewBatchJob("bad", loop, vm, phases, nil)
		}()
	}
}

func TestPrimarySpecValidation(t *testing.T) {
	for i, f := range []func(){
		func() { SquareWave(0, 1, sim.Second) },
		func() { MemcachedVaryingLoad(nil, sim.Second) },
	} {
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

func TestMemcachedVaryingLoadPhases(t *testing.T) {
	loop, m := rig(t, 10)
	m.SetInitialSplit(10)
	vm := m.AddVM("mc", hypervisor.PrimaryGroup, 10, 10)
	spec := MemcachedVaryingLoad([]float64{80000, 20000}, sim.Second)
	srv, err := spec.Build(loop, vm, simrng.New(11), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	loop.RunUntil(sim.Second)
	atHigh := srv.Offered()
	loop.RunUntil(2 * sim.Second)
	atLow := srv.Offered() - atHigh
	if atHigh < 70000 || atHigh > 90000 {
		t.Fatalf("phase1 offered %d, want ~80000", atHigh)
	}
	if atLow < 14000 || atLow > 26000 {
		t.Fatalf("phase2 offered %d, want ~20000", atLow)
	}
}

// TestParsePrimary pins the -primary table: names, Table 1 default
// loads, and refusal of loads outside [minQPS, maxQPS] (or that a
// fixed-shape workload does not take).
func TestParsePrimary(t *testing.T) {
	cases := []struct {
		in      string
		name    string
		qps     float64
		wantErr bool
	}{
		{"memcached:40000", "memcached", 40000, false},
		{"memcached", "memcached", 40000, false}, // default load
		{"indexserve:500", "indexserve", 500, false},
		{"moses", "moses", 400, false},
		{"img-dnn:2000", "img-dnn", 2000, false},
		{"memcached-swing", "memcached-swing", 60000, false},
		{"squarewave", "squarewave", 0, false},
		{"nope", "", 0, true},
		{"memcached:abc", "", 0, true},
		{"memcached:-5", "", 0, true},  // panicked in workload.NewPoisson
		{"memcached:NaN", "", 0, true}, // panicked in sim.Loop.After
		{"memcached:Inf", "", 0, true}, // never advanced simulated time
		{"memcached:0", "", 0, true},
		{"memcached:1e12", "", 0, true}, // arrivals closer than the clock tick
		{"memcached:1e-6", "memcached", 1e-6, false},
		{"memcached:1e-300", "", 0, true}, // mean gap past the clock's range: "sim: negative delay"
		{"moses:1e-300", "", 0, true},
		{"img-dnn:1e-300", "", 0, true},
		{"squarewave:5", "", 0, true},
	}
	for _, c := range cases {
		spec, err := ParsePrimary(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParsePrimary(%q) accepted", c.in)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePrimary(%q): %v", c.in, err)
			continue
		}
		if spec.Name != c.name {
			t.Errorf("ParsePrimary(%q) name %q, want %q", c.in, spec.Name, c.name)
		}
		if c.qps != 0 && spec.QPS != c.qps {
			t.Errorf("ParsePrimary(%q) qps %v, want %v", c.in, spec.QPS, c.qps)
		}
	}
}
