package hypervisor

import (
	"errors"
	"runtime"
	"testing"

	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

func newTestMachine(t *testing.T, cores int, mech Mechanism) (*sim.Loop, *Machine) {
	t.Helper()
	loop := sim.NewLoop()
	cfg := DefaultConfig(cores)
	cfg.Mechanism = mech
	// Deterministic dispatch overhead simplifies timing assertions.
	cfg.DispatchOverheadMin = 0
	cfg.DispatchOverheadMax = 0
	m, err := New(loop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return loop, m
}

func (m *Machine) checkInvariants(t *testing.T) {
	t.Helper()
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitRunsToCompletion(t *testing.T) {
	loop, m := newTestMachine(t, 4, CpuGroups)
	m.SetInitialSplit(4)
	vm := m.AddVM("p", PrimaryGroup, 4, 4)
	var doneAt sim.Time = -1
	vm.Submit(5*sim.Millisecond, func() { doneAt = loop.Now() })
	loop.RunUntil(sim.Second)
	if doneAt != 5*sim.Millisecond {
		t.Fatalf("work completed at %v, want 5ms", doneAt)
	}
	if vm.CPUTime() != 5*sim.Millisecond {
		t.Fatalf("cpuTime %v", vm.CPUTime())
	}
	m.checkInvariants(t)
}

func TestParallelWorkOnMultipleCores(t *testing.T) {
	loop, m := newTestMachine(t, 4, CpuGroups)
	m.SetInitialSplit(4)
	vm := m.AddVM("p", PrimaryGroup, 4, 4)
	done := 0
	for i := 0; i < 4; i++ {
		vm.Submit(10*sim.Millisecond, func() { done++ })
	}
	if m.BusyCores(PrimaryGroup) != 4 {
		t.Fatalf("busy = %d, want 4", m.BusyCores(PrimaryGroup))
	}
	loop.RunUntil(10 * sim.Millisecond)
	if done != 4 {
		t.Fatalf("done = %d; 4 independent jobs on 4 cores should finish together", done)
	}
}

func TestGuestQueueWhenVCPUsBusy(t *testing.T) {
	loop, m := newTestMachine(t, 2, CpuGroups)
	m.SetInitialSplit(2)
	vm := m.AddVM("p", PrimaryGroup, 2, 2)
	var completions []sim.Time
	for i := 0; i < 4; i++ {
		vm.Submit(10*sim.Millisecond, func() { completions = append(completions, loop.Now()) })
	}
	if vm.QueueLen() != 2 {
		t.Fatalf("guest queue %d, want 2", vm.QueueLen())
	}
	loop.RunUntil(sim.Second)
	want := []sim.Time{10 * sim.Millisecond, 10 * sim.Millisecond, 20 * sim.Millisecond, 20 * sim.Millisecond}
	if len(completions) != 4 {
		t.Fatalf("completions %v", completions)
	}
	for i := range want {
		if completions[i] != want[i] {
			t.Fatalf("completions %v, want %v", completions, want)
		}
	}
}

func TestMoreVCPUsThanCoresTimeslices(t *testing.T) {
	loop, m := newTestMachine(t, 1, CpuGroups)
	m.SetInitialSplit(1)
	// 2 vCPUs multiplex on 1 core; both jobs need 20ms of work.
	vm := m.AddVM("p", PrimaryGroup, 2, 2)
	var completions []sim.Time
	for i := 0; i < 2; i++ {
		vm.Submit(20*sim.Millisecond, func() { completions = append(completions, loop.Now()) })
	}
	loop.RunUntil(sim.Second)
	if len(completions) != 2 {
		t.Fatalf("completions %v", completions)
	}
	// Round-robin at 10ms slices: finishes at 30ms and 40ms.
	if completions[0] != 30*sim.Millisecond || completions[1] != 40*sim.Millisecond {
		t.Fatalf("completions %v, want [30ms 40ms]", completions)
	}
	// Total work conserved.
	if vm.CPUTime() != 40*sim.Millisecond {
		t.Fatalf("cpuTime %v", vm.CPUTime())
	}
}

func TestAllocCapInSharedGroup(t *testing.T) {
	loop, m := newTestMachine(t, 4, CpuGroups)
	m.SetInitialSplit(4)
	// VM a is capped at 2 concurrent cores despite 4 vCPUs and 4 free cores.
	a := m.AddVM("a", PrimaryGroup, 4, 2)
	b := m.AddVM("b", PrimaryGroup, 4, 4)
	for i := 0; i < 4; i++ {
		a.Submit(10*sim.Millisecond, nil)
	}
	if a.running != 2 {
		t.Fatalf("a running %d, want 2 (capped)", a.running)
	}
	if m.BusyCores(PrimaryGroup) != 2 {
		t.Fatalf("busy %d", m.BusyCores(PrimaryGroup))
	}
	// b can still use the remaining cores.
	b.Submit(5*sim.Millisecond, nil)
	b.Submit(5*sim.Millisecond, nil)
	if m.BusyCores(PrimaryGroup) != 4 {
		t.Fatalf("busy with b %d", m.BusyCores(PrimaryGroup))
	}
	loop.RunUntil(sim.Second)
	m.checkInvariants(t)
	if a.CPUTime() != 40*sim.Millisecond || b.CPUTime() != 10*sim.Millisecond {
		t.Fatalf("cpu times a=%v b=%v", a.CPUTime(), b.CPUTime())
	}
}

func TestInitialSplit(t *testing.T) {
	_, m := newTestMachine(t, 11, CpuGroups)
	m.SetInitialSplit(10)
	if m.GroupCores(PrimaryGroup) != 10 || m.GroupCores(ElasticGroup) != 1 {
		t.Fatalf("split %d/%d", m.GroupCores(PrimaryGroup), m.GroupCores(ElasticGroup))
	}
	m.checkInvariants(t)
}

func TestResizeIdleCoresCpuGroups(t *testing.T) {
	loop, m := newTestMachine(t, 8, CpuGroups)
	m.SetInitialSplit(8)
	// All cores idle: moving 3 to elastic should take hypercalls (800us)
	// plus at most one idle-rebalance period (5ms).
	if out, err := m.SetPrimaryCores(5); err != nil || out.Status != ResizeApplied {
		t.Fatalf("resize outcome %v err %v", out.Status, err)
	}
	if m.LogicalGroupCores(PrimaryGroup) != 5 {
		t.Fatalf("logical %d", m.LogicalGroupCores(PrimaryGroup))
	}
	if m.GroupCores(PrimaryGroup) != 8 {
		t.Fatal("physical moved instantly; should be delayed")
	}
	loop.RunUntil(800*sim.Microsecond + 5*sim.Millisecond + sim.Microsecond)
	if m.GroupCores(ElasticGroup) != 3 {
		t.Fatalf("elastic cores %d after idle rebalance window", m.GroupCores(ElasticGroup))
	}
	if m.GrowLatency().Summarize().Count != 3 {
		t.Fatalf("grow samples %d", m.GrowLatency().Summarize().Count)
	}
	if max := m.GrowLatency().Max(); max > int64(6*sim.Millisecond) {
		t.Fatalf("grow latency %v too large", max)
	}
	m.checkInvariants(t)
}

func TestResizeRunningCoreCpuGroupsWaitsForSliceEnd(t *testing.T) {
	loop, m := newTestMachine(t, 2, CpuGroups)
	m.SetInitialSplit(1)
	evm := m.AddVM("e", ElasticGroup, 2, 2)
	// A long-running elastic job occupies the single elastic core.
	evm.Submit(sim.Second, nil)
	loop.RunUntil(2 * sim.Millisecond)
	// Take the elastic core back for the primaries.
	m.SetPrimaryCores(2)
	loop.RunUntil(3 * sim.Millisecond)
	if m.GroupCores(PrimaryGroup) != 1 {
		t.Fatal("running core moved before its timeslice ended")
	}
	// The elastic job's first 10ms slice ends at 10ms; the move applies
	// there (hypercalls completed at 2ms+800us).
	loop.RunUntil(10*sim.Millisecond + sim.Microsecond)
	if m.GroupCores(PrimaryGroup) != 2 {
		t.Fatalf("core not reclaimed at slice end: primary=%d", m.GroupCores(PrimaryGroup))
	}
	if m.ShrinkLatency().Summarize().Count != 1 {
		t.Fatalf("shrink samples %d", m.ShrinkLatency().Summarize().Count)
	}
	// Shrink latency = 10ms - 2ms = 8ms.
	if got := m.ShrinkLatency().Max(); got < int64(7*sim.Millisecond) || got > int64(9*sim.Millisecond) {
		t.Fatalf("shrink latency %v, want ~8ms", got)
	}
	m.checkInvariants(t)
}

func TestResizeIPIFastAndPreemptive(t *testing.T) {
	loop, m := newTestMachine(t, 2, IPI)
	m.SetInitialSplit(1)
	evm := m.AddVM("e", ElasticGroup, 2, 2)
	evm.Submit(sim.Second, nil)
	loop.RunUntil(2 * sim.Millisecond)
	m.SetPrimaryCores(2)
	loop.RunUntil(2*sim.Millisecond + 500*sim.Microsecond)
	if m.GroupCores(PrimaryGroup) != 2 {
		t.Fatal("IPI effect did not land within 500us")
	}
	// The running elastic vCPU was preempted off the moved core, its
	// progress conserved: ~2ms executed.
	if got := evm.CPUTime(); got < 1900*sim.Microsecond || got > 2200*sim.Microsecond {
		t.Fatalf("elastic cpuTime %v, want ~2ms", got)
	}
	m.checkInvariants(t)
}

func TestPreemptedWorkResumesElsewhere(t *testing.T) {
	loop, m := newTestMachine(t, 3, IPI)
	m.SetInitialSplit(1)
	evm := m.AddVM("e", ElasticGroup, 3, 3)
	var doneAt sim.Time = -1
	evm.Submit(30*sim.Millisecond, func() { doneAt = loop.Now() })
	loop.RunUntil(5 * sim.Millisecond)
	// Take the core away, then give back two cores shortly after.
	m.SetPrimaryCores(3)
	loop.RunUntil(6 * sim.Millisecond)
	m.SetPrimaryCores(1)
	loop.RunUntil(sim.Second)
	if doneAt < 0 {
		t.Fatal("preempted work never completed")
	}
	// 5ms ran, then a ~1ms+IPI gap, then the remaining 25ms: ~31ms total.
	if doneAt < 30*sim.Millisecond || doneAt > 33*sim.Millisecond {
		t.Fatalf("doneAt %v", doneAt)
	}
	if evm.CPUTime() != 30*sim.Millisecond {
		t.Fatalf("cpuTime %v, want exactly the submitted work", evm.CPUTime())
	}
}

func TestResizeFlipFlopCancelsPendingMoves(t *testing.T) {
	loop, m := newTestMachine(t, 8, CpuGroups)
	m.SetInitialSplit(8)
	m.SetPrimaryCores(4)
	// Before any effect lands, revert.
	m.SetPrimaryCores(8)
	if m.LogicalGroupCores(PrimaryGroup) != 8 {
		t.Fatalf("logical %d after revert", m.LogicalGroupCores(PrimaryGroup))
	}
	loop.RunUntil(100 * sim.Millisecond)
	if m.GroupCores(PrimaryGroup) != 8 {
		t.Fatalf("physical %d; canceled moves must not apply", m.GroupCores(PrimaryGroup))
	}
	m.checkInvariants(t)
}

func TestWaitCountsOnContention(t *testing.T) {
	loop, m := newTestMachine(t, 1, CpuGroups)
	m.SetInitialSplit(1)
	m.SetPrimaryWaitThreshold(5*sim.Millisecond - 1)
	vm := m.AddVM("p", PrimaryGroup, 2, 2)
	vm.Submit(5*sim.Millisecond, nil)
	vm.Submit(5*sim.Millisecond, nil) // must wait for the first
	loop.RunUntil(sim.Second)
	waits, over := m.DrainPrimaryWaitCounts()
	if waits < 2 {
		t.Fatalf("%d dispatch waits, want at least 2", waits)
	}
	if over < 1 {
		t.Fatalf("no wait over 5ms-1 of %d; the second job queues behind the first for 5ms", waits)
	}
	if waits, over := m.DrainPrimaryWaitCounts(); waits != 0 || over != 0 {
		t.Fatalf("drain did not reset: (%d, %d)", waits, over)
	}
}

func TestNoWaitSamplesPerQuantumWhenAlone(t *testing.T) {
	loop, m := newTestMachine(t, 1, CpuGroups)
	m.SetInitialSplit(1)
	vm := m.AddVM("p", PrimaryGroup, 1, 1)
	vm.Submit(100*sim.Millisecond, nil) // 10 quanta
	loop.RunUntil(sim.Second)
	if n, _ := m.DrainPrimaryWaitCounts(); n != 1 {
		t.Fatalf("%d dispatch waits; a lone thread should only record its initial dispatch", n)
	}
}

// TestDispatchOverheadBounds: 200 uncontended dispatches each wait their
// dispatch overhead alone, so all are over a threshold just below its
// minimum and none over its maximum.
func TestDispatchOverheadBounds(t *testing.T) {
	cfg := DefaultConfig(4)
	for _, c := range []struct {
		threshold sim.Time
		over      int
	}{{cfg.DispatchOverheadMin - 1, 200}, {cfg.DispatchOverheadMax, 0}} {
		loop := sim.NewLoop()
		m, err := New(loop, cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.SetInitialSplit(4)
		m.SetPrimaryWaitThreshold(c.threshold)
		vm := m.AddVM("p", PrimaryGroup, 4, 4)
		for i := 0; i < 200; i++ {
			at := sim.Time(i) * sim.Millisecond
			loop.At(at, func() { vm.Submit(100*sim.Microsecond, nil) })
		}
		loop.RunUntil(sim.Second)
		if waits, over := m.DrainPrimaryWaitCounts(); waits != 200 || over != c.over {
			t.Fatalf("threshold %v: (%d, %d) waits over, want (200, %d)", c.threshold, waits, over, c.over)
		}
	}
}

func TestBusyCoresReflectsInstantaneousState(t *testing.T) {
	loop, m := newTestMachine(t, 4, CpuGroups)
	m.SetInitialSplit(4)
	vm := m.AddVM("p", PrimaryGroup, 4, 4)
	if m.BusyCores(PrimaryGroup) != 0 {
		t.Fatal("initially busy")
	}
	vm.Submit(3*sim.Millisecond, nil)
	vm.Submit(7*sim.Millisecond, nil)
	if m.BusyCores(PrimaryGroup) != 2 {
		t.Fatalf("busy %d", m.BusyCores(PrimaryGroup))
	}
	loop.RunUntil(5 * sim.Millisecond)
	if m.BusyCores(PrimaryGroup) != 1 {
		t.Fatalf("busy %d at 5ms", m.BusyCores(PrimaryGroup))
	}
	loop.RunUntil(8 * sim.Millisecond)
	if m.BusyCores(PrimaryGroup) != 0 {
		t.Fatalf("busy %d at 8ms", m.BusyCores(PrimaryGroup))
	}
}

func TestAvgCoresTimeWeighted(t *testing.T) {
	loop, m := newTestMachine(t, 10, IPI)
	m.SetInitialSplit(10)
	loop.RunUntil(100 * sim.Millisecond)
	m.SetPrimaryCores(6)
	loop.RunUntil(200 * sim.Millisecond)
	// Elastic had ~0 cores for 100ms then ~4 for 100ms -> avg ~2.
	avg := float64(m.CoreTime(ElasticGroup)) / float64(loop.Now())
	if avg < 1.8 || avg > 2.1 {
		t.Fatalf("avg elastic cores %v, want ~2", avg)
	}
	// The ledger is exact: every core is in one group at every instant.
	if got, want := m.CoreTime(PrimaryGroup)+m.CoreTime(ElasticGroup), 10*loop.Now(); got != want {
		t.Fatalf("core-time sums to %v, want %v", got, want)
	}
}

func TestSetPrimaryCoresRejectsOutOfRange(t *testing.T) {
	loop, m := newTestMachine(t, 4, IPI)
	m.SetInitialSplit(4)
	out, err := m.SetPrimaryCores(-3)
	if !errors.Is(err, ErrResizeRejected) || out.Status != ResizeRejected {
		t.Fatalf("negative target: outcome %v err %v", out.Status, err)
	}
	if m.LogicalGroupCores(PrimaryGroup) != 4 {
		t.Fatal("rejected resize moved cores")
	}
	out, err = m.SetPrimaryCores(99)
	if !errors.Is(err, ErrResizeRejected) || out.Status != ResizeRejected {
		t.Fatalf("overlarge target: outcome %v err %v", out.Status, err)
	}
	if m.LogicalGroupCores(PrimaryGroup) != 4 {
		t.Fatal("rejected resize moved cores")
	}
	loop.RunUntil(sim.Second)
	m.checkInvariants(t)
}

func TestResizeNoChangeIsNoop(t *testing.T) {
	_, m := newTestMachine(t, 4, CpuGroups)
	m.SetInitialSplit(3)
	if out, err := m.SetPrimaryCores(3); err != nil || out.Status != ResizeNoop {
		t.Fatalf("no-op resize outcome %v err %v", out.Status, err)
	}
}

func TestIPIEffectLatencyDistribution(t *testing.T) {
	loop, m := newTestMachine(t, 2, IPI)
	m.SetInitialSplit(2)
	// Repeatedly bounce one core between the groups and check the
	// grow-latency distribution matches the configured ~60us/130us shape.
	n := 0
	var flip func()
	flip = func() {
		if n >= 2000 {
			return
		}
		n++
		if n%2 == 1 {
			m.SetPrimaryCores(1)
		} else {
			m.SetPrimaryCores(2)
		}
		loop.After(2*sim.Millisecond, flip)
	}
	loop.At(0, flip)
	loop.RunUntil(5 * sim.Second) // the last flip is at 4 s
	h := m.GrowLatency()
	if h.Summarize().Count < 900 {
		t.Fatalf("grow samples %d", h.Summarize().Count)
	}
	p99 := h.P99()
	if p99 < int64(80*sim.Microsecond) || p99 > int64(250*sim.Microsecond) {
		t.Fatalf("IPI grow P99 = %v, want ~130us", p99)
	}
	mean := h.Mean()
	if mean < float64(30*sim.Microsecond) || mean > float64(110*sim.Microsecond) {
		t.Fatalf("IPI grow mean = %v ns, want ~60us", mean)
	}
}

func TestCpuGroupsGrowShrinkLatencyShape(t *testing.T) {
	// With a busy elastic VM, shrink should spread up to ~10ms and grow
	// (idle buffer cores) up to ~5ms, as in Figure 14a.
	loop, m := newTestMachine(t, 6, CpuGroups)
	m.SetInitialSplit(5)
	evm := m.AddVM("e", ElasticGroup, 6, 6)
	var refill func()
	refill = func() {
		evm.Submit(50*sim.Millisecond, refill)
	}
	for i := 0; i < 6; i++ {
		refill()
	}
	n := 0
	rng := simrng.New(7)
	var flip func()
	flip = func() {
		if n >= 1000 {
			return
		}
		n++
		if n%2 == 1 {
			m.SetPrimaryCores(2) // grow elastic by 3
		} else {
			m.SetPrimaryCores(5) // shrink elastic by 3
		}
		loop.After(sim.Time(15+rng.Intn(10))*sim.Millisecond, flip)
	}
	loop.At(0, flip)
	loop.RunUntil(25 * sim.Second)
	grow, shrink := m.GrowLatency(), m.ShrinkLatency()
	if grow.Summarize().Count == 0 || shrink.Summarize().Count == 0 {
		t.Fatal("no samples")
	}
	if max := grow.Max(); max > int64(11*sim.Millisecond) {
		t.Fatalf("grow max %v", max)
	}
	if max := shrink.Max(); max > int64(12*sim.Millisecond) {
		t.Fatalf("shrink max %v", max)
	}
	if shrink.Mean() <= grow.Mean() {
		t.Fatalf("shrink (%.0fns) should be slower than grow (%.0fns) on average",
			shrink.Mean(), grow.Mean())
	}
	m.checkInvariants(t)
}

func TestWorkConservationUnderChurn(t *testing.T) {
	// Saturating load on both groups with random resizes: total executed
	// CPU time must equal total core-time within rounding.
	loop, m := newTestMachine(t, 8, IPI)
	m.SetInitialSplit(4)
	p := m.AddVM("p", PrimaryGroup, 8, 8)
	e := m.AddVM("e", ElasticGroup, 8, 8)
	var refillP, refillE func()
	refillP = func() { p.Submit(3*sim.Millisecond, refillP) }
	refillE = func() { e.Submit(3*sim.Millisecond, refillE) }
	for i := 0; i < 8; i++ {
		refillP()
		refillE()
	}
	rng := simrng.New(3)
	var churn func()
	count := 0
	churn = func() {
		if count >= 200 {
			return
		}
		count++
		m.SetPrimaryCores(1 + rng.Intn(8))
		loop.After(5*sim.Millisecond, churn)
	}
	loop.At(0, churn)
	end := 1200 * sim.Millisecond
	loop.RunUntil(end)
	m.checkInvariants(t)
	total := p.CPUTime() + e.CPUTime()
	capacity := sim.Time(8) * end
	util := float64(total) / float64(capacity)
	if util < 0.97 || util > 1.0 {
		t.Fatalf("utilization %v under saturation, want ~1 (work conservation)", util)
	}
}

func TestAddVMValidation(t *testing.T) {
	_, m := newTestMachine(t, 2, CpuGroups)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero-vCPU VM")
		}
	}()
	m.AddVM("bad", PrimaryGroup, 0, 1)
}

func TestConfigValidation(t *testing.T) {
	loop := sim.NewLoop()
	bad := []Config{
		{TotalCores: 0},
		func() Config { c := DefaultConfig(4); c.SchedPeriod = 0; return c }(),
		func() Config { c := DefaultConfig(4); c.CpuGroupsHypercalls = 0; return c }(),
		func() Config {
			c := DefaultConfig(4)
			c.DispatchOverheadMin = 10
			c.DispatchOverheadMax = 5
			return c
		}(),
	}
	for i, cfg := range bad {
		if _, err := New(loop, cfg); err == nil {
			t.Fatalf("config %d accepted", i)
		}
	}
}

func TestMechanismString(t *testing.T) {
	if CpuGroups.String() != "cpugroups" || IPI.String() != "ipis" {
		t.Fatal("mechanism names")
	}
	if PrimaryGroup.String() != "primary" || ElasticGroup.String() != "elastic" {
		t.Fatal("group names")
	}
}

// TestPrimaryWaitsHoldNoBuffer: the long-term safeguard's wait signal is
// two counts, so 100 k contended primary dispatches, drained every 500 ms
// as the agent drains them, allocate nothing once the machine is warm —
// however many waits one window holds. Measured in bytes
// (runtime.MemStats.TotalAlloc), not in allocs/op, which truncates.
func TestPrimaryWaitsHoldNoBuffer(t *testing.T) {
	loop := sim.NewLoop()
	m, err := New(loop, DefaultConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	m.SetInitialSplit(2)
	m.SetPrimaryWaitThreshold(50 * sim.Microsecond)
	vm := m.AddVM("p", PrimaryGroup, 4, 4)
	// Bursts of three 60 µs requests every 100 µs: 1.8 cores of work on
	// 2, so one vCPU of each burst waits for a core.
	loop.NewTicker(0, 100*sim.Microsecond, func() {
		for range 3 {
			vm.Submit(60*sim.Microsecond, nil)
		}
	})
	var waits, over int
	loop.NewTicker(500*sim.Millisecond, 500*sim.Millisecond, func() {
		w, o := m.DrainPrimaryWaitCounts()
		waits, over = waits+w, over+o
	})
	loop.RunUntil(10 * sim.Millisecond) // queues, free lists and the event heap warm up
	m.DrainPrimaryWaitCounts()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	loop.RunUntil(3510 * sim.Millisecond)
	runtime.ReadMemStats(&after)
	w, o := m.DrainPrimaryWaitCounts()
	waits, over = waits+w, over+o
	t.Logf("%d dispatch waits, %d over 50 µs", waits, over)
	if waits < 100_000 || over == 0 {
		t.Fatalf("%d dispatch waits, %d over 50 µs; want 100 k contended ones", waits, over)
	}
	if b := after.TotalAlloc - before.TotalAlloc; b != 0 {
		t.Fatalf("%d dispatch waits allocated %d B, want 0", waits, b)
	}
}
