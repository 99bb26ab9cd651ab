package workload_test

import (
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
	"smartharvest/internal/workload"
)

// BenchmarkRequestPath times one request end to end — arrival, fan-out,
// guest queue, dispatch, slice end, join, latency histogram — on shbench's
// request probe (apps.Memcached(40000) on an 11-core machine without an
// agent) sharing the machine with a fan-out-3 server whose subtasks are
// staggered, so both pooled record kinds are on the path. One op is one
// request; run with -benchmem for B/request.
func BenchmarkRequestPath(b *testing.B) {
	const fanoutQPS = 10000
	loop := sim.NewLoop()
	m, err := hypervisor.New(loop, hypervisor.DefaultConfig(11))
	if err != nil {
		b.Fatal(err)
	}
	m.SetInitialSplit(10)
	rng := simrng.New(1)
	kv, err := apps.Memcached(40000).Build(loop, m.AddVM("memcached", hypervisor.PrimaryGroup, 10, 10), rng.Split(), 0)
	if err != nil {
		b.Fatal(err)
	}
	fan := workload.NewServer(loop, m.AddVM("fanout", hypervisor.PrimaryGroup, 4, 4), workload.ServerConfig{
		Name:    "fanout",
		Arrival: workload.NewPoisson(rng.Split(), fanoutQPS),
		Service: workload.NewExpService(rng.Split(), 20*sim.Microsecond),
		Fanout:  workload.FixedFanout(3),
		Stagger: workload.NewExpService(rng.Split(), 15*sim.Microsecond),
	})
	kv.Start()
	fan.Start()
	// The agent's long-term safeguard drains the wait counts every 500 ms.
	loop.NewTicker(500*sim.Millisecond, 500*sim.Millisecond, func() { m.DrainPrimaryWaitCounts() })
	loop.RunUntil(sim.Second) // free lists and queues reach capacity
	before := kv.Completed() + fan.Completed()
	b.ReportAllocs()
	b.ResetTimer()
	loop.RunUntil(loop.Now() + sim.Time(b.N)*sim.Second/(40000+fanoutQPS))
	b.StopTimer()
	if done := kv.Completed() + fan.Completed() - before; b.N > 1000 && (done < uint64(b.N)*9/10 || done > uint64(b.N)*11/10) {
		b.Fatalf("%d requests completed over %d ops", done, b.N)
	}
}

// TestRequestPathZeroAllocs pins the steady-state request path at zero
// bytes a request. Not AllocsPerOp: it is an integer division and reads the
// 0.94 allocs/op of one stray closure as 0; B/op resolves 16x finer, and
// the total bounds what even that would round away.
func TestRequestPathZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed")
	}
	res := testing.Benchmark(BenchmarkRequestPath)
	if res.N < 100000 {
		t.Fatalf("measured only %d requests, want at least 100000", res.N)
	}
	if b := res.AllocedBytesPerOp(); b != 0 || res.MemAllocs*1000 > uint64(res.N) {
		t.Fatalf("request path allocates %d B/request (%d allocs over %d requests), want 0",
			b, res.MemAllocs, res.N)
	}
}
