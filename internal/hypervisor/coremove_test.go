package hypervisor

import (
	"testing"

	"smartharvest/internal/sim"
)

// benchmarkCoreMoves shrinks the primary group and grows it back on a loaded
// 8-core machine, letting each resize land before the next, so idle and
// running cores move both ways; one op is one round trip.
func benchmarkCoreMoves(mech Mechanism) func(b *testing.B) {
	return func(b *testing.B) {
		loop := sim.NewLoop()
		cfg := DefaultConfig(8)
		cfg.Mechanism = mech
		m, err := New(loop, cfg)
		if err != nil {
			b.Fatal(err)
		}
		m.SetInitialSplit(6)
		p := m.AddVM("p", PrimaryGroup, 6, 6)
		e := m.AddVM("e", ElasticGroup, 8, 8)
		var refillP, refillE func()
		refillP = func() { p.Submit(3*sim.Millisecond, refillP) }
		refillE = func() { e.Submit(7*sim.Millisecond, refillE) }
		for i := 0; i < 3; i++ {
			refillP()
		}
		for i := 0; i < 8; i++ {
			refillE()
		}
		round := func() {
			for _, n := range [2]int{2, 6} {
				if _, err := m.SetPrimaryCores(n); err != nil {
					b.Fatal(err)
				}
				loop.RunUntil(loop.Now() + 20*sim.Millisecond)
			}
			// The agent drains the wait samples; nobody else would.
			m.DrainPrimaryWaits()
		}
		for i := 0; i < 50; i++ {
			round() // run queues and the event heap reach capacity
		}
		resizes := m.Resizes()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round()
		}
		b.StopTimer()
		if got := m.Resizes() - resizes; got != uint64(2*b.N) {
			b.Fatalf("%d resizes over %d round trips", got, b.N)
		}
		if m.GroupCores(PrimaryGroup) != 6 {
			b.Fatalf("primary group ended at %d cores, want 6", m.GroupCores(PrimaryGroup))
		}
	}
}

// TestCoreMoveZeroAllocs pins core moves at zero bytes: SetPrimaryCores down
// and up under both mechanisms allocates nothing once the machine is warm.
// B/op, not AllocsPerOp, which truncates anything under one allocation per
// op to 0.
func TestCoreMoveZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed")
	}
	for _, mech := range []Mechanism{IPI, CpuGroups} {
		res := testing.Benchmark(benchmarkCoreMoves(mech))
		if res.N < 100 {
			t.Fatalf("%v: measured only %d round trips", mech, res.N)
		}
		if b := res.AllocedBytesPerOp(); b != 0 || res.MemAllocs*1000 > uint64(res.N) {
			t.Fatalf("%v: core moves allocate %d B/round trip (%d allocs over %d round trips), want 0",
				mech, b, res.MemAllocs, res.N)
		}
	}
}
