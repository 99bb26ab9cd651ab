package workload

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// inputCase builds a server's input from a seed: two builds from one seed
// draw equal streams.
type inputCase struct {
	name  string
	build func(seed uint64) (Arrival, ServiceDist)
}

func lognormal(r *simrng.Rand) ServiceDist {
	return NewLogNormalService(r.Split(), 57*sim.Microsecond, 3.5, 2*sim.Millisecond)
}

// inputCases covers every arrival process and service distribution a
// high-rate primary is built from. The characterized cases share one burst
// schedule, looping every 100 ms, which every pipeline built on it then
// reads concurrently.
func inputCases() []inputCase {
	shared := NewBurstSchedule(77, 40, 100*sim.Millisecond)
	return []inputCase{
		{"poisson+lognormal", func(seed uint64) (Arrival, ServiceDist) {
			r := simrng.New(seed)
			return NewPoisson(r.Split(), 40000), lognormal(r)
		}},
		{"batchpoisson+bimodal", func(seed uint64) (Arrival, ServiceDist) {
			r := simrng.New(seed)
			fast := NewLogNormalService(r.Split(), 50*sim.Microsecond, 3, 0)
			slow := NewExpService(r.Split(), 900*sim.Microsecond)
			return NewBatchPoisson(r.Split(), 30000, 3), NewBimodal(r.Split(), fast, slow, 0.05)
		}},
		{"mmpp2+exp", func(seed uint64) (Arrival, ServiceDist) {
			r := simrng.New(seed)
			return NewMMPP2(r.Split(), 10000, 80000, 5*sim.Millisecond, sim.Millisecond),
				NewExpService(r.Split(), 40*sim.Microsecond)
		}},
		{"phased", func(seed uint64) (Arrival, ServiceDist) {
			r := simrng.New(seed)
			return NewPhased(
				Phase{Duration: 20 * sim.Millisecond, Arrival: NewPoisson(r.Split(), 20000)},
				Phase{Duration: 10 * sim.Millisecond, Arrival: NewPoisson(r.Split(), 90000)},
				Phase{Duration: sim.Millisecond, Arrival: NewBatchPoisson(r.Split(), 50000, 2)},
			), lognormal(r)
		}},
		{"characterized-mixed", func(seed uint64) (Arrival, ServiceDist) {
			r := simrng.New(seed)
			return NewCharacterized(r.Split(), KnobsFor(ClassMixed, 30000), shared), lognormal(r)
		}},
		{"characterized-periodic", func(seed uint64) (Arrival, ServiceDist) {
			r := simrng.New(seed)
			return NewCharacterized(r.Split(), KnobsFor(ClassPeriodic, 30000), shared), lognormal(r)
		}},
	}
}

// drawPair draws n arrivals and n service demands from the reference
// objects and from the pipeline in the same interleaving, which a seeded
// stream picks, and fails at the first difference.
func drawPair(t *testing.T, refA Arrival, refS ServiceDist, p *pipeline, start sim.Time, n int, order *simrng.Rand) {
	t.Helper()
	now := start
	for arrivals, services := 0, 0; arrivals < n || services < n; {
		if services == n || arrivals < n && order.Bool(0.5) {
			wantGap, wantBatch := refA.Next(now)
			gap, batch := p.Next(now)
			if gap != wantGap || batch != wantBatch {
				t.Fatalf("arrival %d at %v: pipelined (%v, %d), inline (%v, %d)", arrivals, now, gap, batch, wantGap, wantBatch)
			}
			now += gap
			arrivals++
			continue
		}
		if got, want := p.Sample(), refS.Sample(); got != want {
			t.Fatalf("service draw %d: pipelined %v, inline %v", services, got, want)
		}
		services++
	}
}

// TestPipelineDrawsTheInlineStreams: for every input case, the pipelined
// arrivals and service demands equal the same seeded objects drawn inline,
// across several block boundaries, whether the producer fills the blocks,
// the consumer does (no producer yet), or both (the producer starts half
// way), and the producer exits at close, mid-block.
func TestPipelineDrawsTheInlineStreams(t *testing.T) {
	const n = 5*blockLen + 37
	for _, tc := range inputCases() {
		for _, mode := range []string{"producer", "consumer", "handover"} {
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				base := runtime.NumGoroutine()
				refA, refS := tc.build(3)
				a, s := tc.build(3)
				// The pipeline takes over after some inline draws, as the
				// server does after its probe.
				start := 7 * sim.Millisecond
				refA.Next(start - sim.Millisecond)
				a.Next(start - sim.Millisecond)
				p := newPipeline(a, s, start)
				order := simrng.New(11)
				switch mode {
				case "producer":
					go p.produce()
					drawPair(t, refA, refS, p, start, n, order)
				case "consumer":
					drawPair(t, refA, refS, p, start, n, order)
					return // no producer to close
				case "handover":
					drawPair(t, refA, refS, p, start, n/2, order)
					go p.produce()
					drawPair(t, refA, refS, p, p.at, n/2, order)
				}
				p.close()
				waitGoroutines(t, base)
			})
		}
	}
}

// waitGoroutines waits for the goroutine count to come back to base: a
// producer that close waited for may still be on its way out.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before: a producer was left running", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineOffChainPanics: the pipeline hands out arrivals only along
// its chain.
func TestPipelineOffChainPanics(t *testing.T) {
	r := simrng.New(1)
	p := newPipeline(NewPoisson(r.Split(), 1000), lognormal(r), 0)
	go p.produce()
	defer p.close()
	gap, _ := p.Next(0)
	defer func() {
		if recover() == nil {
			t.Fatal("an arrival drawn off the chain did not panic")
		}
	}()
	p.Next(gap + 1)
}

// failingArrival panics at its failAt-th draw.
type failingArrival struct{ draws, failAt int }

func (f *failingArrival) Next(sim.Time) (sim.Time, int) {
	if f.draws++; f.draws == f.failAt {
		panic(fmt.Sprintf("draw %d failed", f.draws))
	}
	return sim.Microsecond, 1
}

// TestPipelineReraisesDrawPanic: a draw that panics on the producer
// panics on the consumer, with the same value, at the draw the inline
// path would have panicked at, and the producer still exits at close.
func TestPipelineReraisesDrawPanic(t *testing.T) {
	for _, failAt := range []int{1, blockLen + 5} {
		t.Run(fmt.Sprint(failAt), func(t *testing.T) {
			base := runtime.NumGoroutine()
			p := newPipeline(&failingArrival{failAt: failAt}, Deterministic(1), 0)
			go p.produce()
			now := sim.Time(0)
			for i := 1; i < failAt; i++ {
				gap, _ := p.Next(now)
				now += gap
			}
			func() {
				defer func() {
					if r := recover(); r != fmt.Sprintf("draw %d failed", failAt) {
						t.Fatalf("draw %d recovered %v", failAt, r)
					}
				}()
				p.Next(now)
			}()
			if p.Sample() != 1 {
				t.Fatal("the service stream stopped with the arrival stream")
			}
			p.close()
			waitGoroutines(t, base)
		})
	}
}

// TestPipelinedServerMatchesInline runs one server inline (GOMAXPROCS 1)
// and pipelined (GOMAXPROCS 2) — batched arrivals, a variable fan-out and
// staggered subtasks — and demands identical results, also when the VM is
// removed mid-block, after which the producer must be gone.
func TestPipelinedServerMatchesInline(t *testing.T) {
	type outcome struct {
		offered, completed uint64
		latency            any
		cpu                sim.Time
	}
	run := func(t *testing.T, procs int, removeAt sim.Time) outcome {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		base := runtime.NumGoroutine()
		loop, m, vm := newServerRig(t, 8)
		r := simrng.New(5)
		srv := NewServer(loop, vm, ServerConfig{
			Name:    "kv",
			Arrival: NewBatchPoisson(r.Split(), 60000, 2.5),
			Service: NewLogNormalService(r.Split(), 40*sim.Microsecond, 3, sim.Millisecond),
			Fanout:  NewRangeFanout(r.Split(), 1, 3),
			Stagger: NewExpService(r.Split(), 10*sim.Microsecond),
		})
		srv.Start()
		end := 400 * sim.Millisecond
		if removeAt > 0 {
			loop.RunUntil(removeAt)
			if procs > 1 {
				if srv.pipe == nil {
					t.Fatal("a 60k req/s server did not pipeline its input")
				}
				if s := &srv.pipe.services; s.i == 0 || s.i == s.n {
					t.Fatalf("removal at a block boundary (%d of %d)", s.i, s.n)
				}
			}
			m.RemoveVM(vm)
		}
		loop.RunUntil(end)
		if srv.pipe != nil {
			if removeAt > 0 {
				t.Fatal("the producer outlived the VM's removal")
			}
			srv.Close()
		}
		waitGoroutines(t, base)
		return outcome{srv.Offered(), srv.Completed(), srv.Latency().Summarize(), vm.CPUTime()}
	}
	for _, removeAt := range []sim.Time{0, 123*sim.Millisecond + 4567} {
		t.Run(fmt.Sprint("remove-at-", removeAt), func(t *testing.T) {
			inline, pipelined := run(t, 1, removeAt), run(t, 2, removeAt)
			if inline.offered == 0 || fmt.Sprint(inline) != fmt.Sprint(pipelined) {
				t.Fatalf("inline %+v\npipelined %+v", inline, pipelined)
			}
		})
	}
}

// TestPipelineSelection: a server pipelines its input from the first
// window of probeArrivals arrivals at pipelineMinQPS or above, given a
// second processor: a steady fast source at once, a swinging one at its
// first surge, a slow one and any at GOMAXPROCS 1 never.
func TestPipelineSelection(t *testing.T) {
	for _, tc := range []struct {
		name    string
		procs   int
		arrival func(*simrng.Rand) Arrival
		want    bool
	}{
		{"poisson-40k", 2, func(r *simrng.Rand) Arrival { return NewPoisson(r, 40000) }, true},
		{"poisson-40k-one-proc", 1, func(r *simrng.Rand) Arrival { return NewPoisson(r, 40000) }, false},
		{"poisson-8k", 2, func(r *simrng.Rand) Arrival { return NewPoisson(r, 8000) }, false},
		{"3k-then-47k", 2, func(*simrng.Rand) Arrival {
			return NewPhased(Phase{Duration: 500 * sim.Millisecond, Arrival: NewUniform(3000)},
				Phase{Duration: sim.Second, Arrival: NewUniform(47000)})
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			loop, _, vm := newServerRig(t, 8)
			r := simrng.New(5)
			srv := NewServer(loop, vm, ServerConfig{
				Name:    tc.name,
				Arrival: tc.arrival(r.Split()),
				Service: NewExpService(r.Split(), 20*sim.Microsecond),
			})
			srv.Start()
			loop.RunUntil(450 * sim.Millisecond)
			early := srv.pipe != nil
			loop.RunUntil(3 * sim.Second)
			if got := srv.pipe != nil; got != tc.want || tc.name == "3k-then-47k" && early {
				t.Fatalf("pipelined %v (at 450 ms: %v), want %v; %d arrivals offered", got, early, tc.want, srv.Offered())
			}
			srv.Close()
		})
	}
}
