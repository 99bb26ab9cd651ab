package hypervisor

import (
	"testing"

	"smartharvest/internal/sim"
)

func TestRemoveVMStopsRunningWork(t *testing.T) {
	loop, m := newTestMachine(t, 4, CpuGroups)
	m.SetInitialSplit(4)
	vm := m.AddVM("p", PrimaryGroup, 4, 4)
	done := 0
	for i := 0; i < 4; i++ {
		vm.Submit(100*sim.Millisecond, func() { done++ })
	}
	loop.RunUntil(50 * sim.Millisecond)
	m.RemoveVM(vm)
	loop.RunUntil(sim.Second)
	if done != 0 {
		t.Fatalf("%d completions after removal", done)
	}
	if !vm.Removed() {
		t.Fatal("not marked removed")
	}
	// Consumed work is credited: ~4 cores x 50ms.
	if got := vm.CPUTime(); got < 190*sim.Millisecond || got > 210*sim.Millisecond {
		t.Fatalf("cpuTime %v, want ~200ms", got)
	}
	if m.BusyCores(PrimaryGroup) != 0 {
		t.Fatal("cores still busy after removal")
	}
	m.checkInvariants(t)
}

func TestRemoveVMDropsQueuedWork(t *testing.T) {
	loop, m := newTestMachine(t, 2, CpuGroups)
	m.SetInitialSplit(2)
	vm := m.AddVM("p", PrimaryGroup, 2, 2)
	for i := 0; i < 10; i++ {
		vm.Submit(50*sim.Millisecond, nil)
	}
	loop.RunUntil(10 * sim.Millisecond)
	if vm.QueueLen() != 8 {
		t.Fatalf("queue %d", vm.QueueLen())
	}
	m.RemoveVM(vm)
	if vm.QueueLen() != 0 {
		t.Fatal("guest queue not dropped")
	}
	// Post-removal submissions are discarded, not queued.
	cpu := vm.CPUTime()
	vm.Submit(sim.Millisecond, func() { t.Fatal("work submitted after removal completed") })
	if vm.QueueLen() != 0 {
		t.Fatalf("queue %d after a post-removal submit", vm.QueueLen())
	}
	loop.RunUntil(sim.Second)
	if vm.CPUTime() != cpu {
		t.Fatalf("removed VM ran work: cpu %v -> %v", cpu, vm.CPUTime())
	}
	m.checkInvariants(t)
}

func TestRemoveVMFreesCoresForOthers(t *testing.T) {
	loop, m := newTestMachine(t, 2, CpuGroups)
	m.SetInitialSplit(2)
	hog := m.AddVM("hog", PrimaryGroup, 2, 2)
	other := m.AddVM("other", PrimaryGroup, 2, 2)
	hog.Submit(sim.Second, nil)
	hog.Submit(sim.Second, nil)
	var doneAt sim.Time = -1
	other.Submit(10*sim.Millisecond, func() { doneAt = loop.Now() })
	// With the hog resident, other's job waits for a quantum boundary
	// (10ms) before its first slice: it completes at ~20ms.
	loop.RunUntil(50 * sim.Millisecond)
	if doneAt < 15*sim.Millisecond {
		t.Fatalf("other finished at %v; should have waited for a quantum", doneAt)
	}
	m.RemoveVM(hog)
	// With the hog gone, a fresh job dispatches immediately and takes
	// exactly its service time.
	start := loop.Now()
	doneAt = -1
	other.Submit(10*sim.Millisecond, func() { doneAt = loop.Now() })
	loop.RunUntil(start + 100*sim.Millisecond)
	if doneAt != start+10*sim.Millisecond {
		t.Fatalf("post-removal job finished at %v, want %v", doneAt, start+10*sim.Millisecond)
	}
	m.checkInvariants(t)
}

func TestRemoveVMUnregisteredPanics(t *testing.T) {
	loop, m := newTestMachine(t, 2, CpuGroups)
	_ = loop
	vm := &VM{name: "ghost"}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.RemoveVM(vm)
}

func TestRemoveVMDuringElasticContention(t *testing.T) {
	// Remove a primary VM while resizes are in flight; conservation
	// invariants must hold and the elastic workload keeps running.
	loop, m := newTestMachine(t, 6, IPI)
	m.SetInitialSplit(5)
	p := m.AddVM("p", PrimaryGroup, 5, 5)
	e := m.AddVM("e", ElasticGroup, 6, 6)
	var refill func()
	refill = func() { e.Submit(5*sim.Millisecond, refill) }
	for i := 0; i < 6; i++ {
		refill()
	}
	for i := 0; i < 5; i++ {
		p.Submit(200*sim.Millisecond, nil)
	}
	loop.RunUntil(50 * sim.Millisecond)
	m.SetPrimaryCores(3) // in-flight moves while removing
	m.RemoveVM(p)
	loop.RunUntil(sim.Second)
	m.checkInvariants(t)
	if len(m.VMs()) != 1 {
		t.Fatalf("VMs %d", len(m.VMs()))
	}
	// Elastic should be able to use everything the machine offers.
	m.SetPrimaryCores(0)
	loop.RunUntil(2 * sim.Second)
	if m.BusyCores(ElasticGroup) != 6 {
		t.Fatalf("elastic busy %d, want all 6", m.BusyCores(ElasticGroup))
	}
	m.checkInvariants(t)
}
