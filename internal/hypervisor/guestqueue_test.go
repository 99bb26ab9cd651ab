package hypervisor

import (
	"testing"

	"smartharvest/internal/sim"
)

// TestGuestQueueStandingBacklog keeps a 2-vCPU VM's guest run queue
// non-empty for thousands of items, topping it up in bursts while it
// drains: the queue must stay FIFO, reuse its popped slots by compacting
// (not by growing), and start over at slot 0 whenever it empties.
func TestGuestQueueStandingBacklog(t *testing.T) {
	loop, m := newTestMachine(t, 2, CpuGroups)
	m.SetInitialSplit(2)
	vm := m.AddVM("p", PrimaryGroup, 2, 2)
	next, lastDone := 0, -1
	submit := func() {
		id := next
		next++
		vm.Submit(10*sim.Microsecond, func() {
			if id != lastDone+1 {
				t.Fatalf("item %d completed after item %d", id, lastDone)
			}
			lastDone = id
		})
	}
	compactions, restarts, maxCap := 0, 0, 0
	for round := 0; round < 400; round++ {
		// 2 vCPUs retire 10 items in 50 us: 11 a round builds a backlog,
		// every eighth round lets it drain completely.
		for i := 0; i < 11 && round%8 != 7; i++ {
			head, queued := vm.qhead, vm.QueueLen()
			submit()
			if queued > 0 && vm.qhead < head {
				compactions++
			}
		}
		wait := 50 * sim.Microsecond
		if round%8 == 7 {
			wait = sim.Millisecond
		}
		head := vm.qhead
		loop.RunUntil(loop.Now() + wait)
		if head > 0 && vm.qhead == 0 && vm.QueueLen() == 0 {
			restarts++
		}
		maxCap = max(maxCap, cap(vm.queue))
		m.checkInvariants(t)
	}
	loop.RunUntil(loop.Now() + sim.Second)
	if lastDone != next-1 || vm.QueueLen() != 0 {
		t.Fatalf("completed through item %d of %d, %d still queued", lastDone, next, vm.QueueLen())
	}
	if compactions < 10 || restarts < 10 {
		t.Fatalf("%d compactions, %d restarts at slot 0: the queue never wrapped", compactions, restarts)
	}
	// The backlog never exceeds ~20 items; a queue that grew instead of
	// reusing popped slots would hold all ~3850.
	if maxCap > 64 {
		t.Fatalf("guest queue capacity reached %d for a backlog of ~20", maxCap)
	}
	m.checkInvariants(t)
}

// TestGuestQueueForgetsPoppedWork: the copy-shift pop used to leave the
// popped item's completion in the slice's last slot, keeping it reachable
// for the VM's lifetime. Every slot outside the waiting items must be zero,
// at any point, and RemoveVM must reset the head along with the slice.
func TestGuestQueueForgetsPoppedWork(t *testing.T) {
	loop, m := newTestMachine(t, 2, CpuGroups)
	m.SetInitialSplit(2)
	vm := m.AddVM("p", PrimaryGroup, 2, 2)
	for i := 0; i < 8; i++ {
		vm.Submit(sim.Millisecond, func() {})
	}
	loop.RunUntil(2*sim.Millisecond + sim.Microsecond) // four popped, two waiting
	if vm.qhead != 4 || vm.QueueLen() != 2 {
		t.Fatalf("head %d, %d waiting; want 4 and 2", vm.qhead, vm.QueueLen())
	}
	for i, it := range vm.queue[:cap(vm.queue)] {
		if waiting := i >= vm.qhead && i < len(vm.queue); waiting != (it.done != nil) {
			t.Fatalf("slot %d (head %d, len %d): done set = %v", i, vm.qhead, len(vm.queue), it.done != nil)
		}
	}
	m.checkInvariants(t)

	m.RemoveVM(vm)
	if vm.qhead != 0 || vm.queue != nil || vm.QueueLen() != 0 {
		t.Fatalf("after RemoveVM: head %d, len %d, QueueLen %d", vm.qhead, len(vm.queue), vm.QueueLen())
	}
	loop.RunUntil(sim.Second)
	m.checkInvariants(t)
}

// TestIPIOnCompletingSliceMovesCore: an IPI that lands at the very instant
// the preempted item completes used to panic ("applyMove on a running
// core"): finishing the item started its queued successor on the core the
// IPI was taking away. The successor must run elsewhere and the core move.
// (Found by FuzzMachine; testdata/fuzz holds the input.)
func TestIPIOnCompletingSliceMovesCore(t *testing.T) {
	loop := sim.NewLoop()
	cfg := DefaultConfig(2)
	cfg.Mechanism = IPI
	cfg.DispatchOverheadMin, cfg.DispatchOverheadMax = 0, 0
	cfg.IPIEffectMean, cfg.IPIEffectP99 = 1, 2 // every IPI takes the 5 us floor
	m, err := New(loop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.SetInitialSplit(2)
	vm := m.AddVM("p", PrimaryGroup, 1, 1)
	// t=0: core 0 (idle) starts moving to the elastic group, effective at
	// 5 us. t=1 us: a 4 us item lands on core 0, still a primary core, with
	// a second item queued behind it; its slice ends at 5 us, after the IPI
	// in event order.
	if _, err := m.SetPrimaryCores(1); err != nil {
		t.Fatal(err)
	}
	var done [2]sim.Time
	loop.At(sim.Microsecond, func() {
		vm.Submit(4*sim.Microsecond, func() { done[0] = loop.Now() })
		vm.Submit(4*sim.Microsecond, func() { done[1] = loop.Now() })
		if m.cores[0].running == nil {
			t.Fatal("the item did not land on the moving core")
		}
	})
	loop.RunUntil(sim.Millisecond)
	if done != [2]sim.Time{5 * sim.Microsecond, 9 * sim.Microsecond} {
		t.Fatalf("items completed at %v, want 5us and 9us", done)
	}
	if m.GroupCores(PrimaryGroup) != 1 || m.cores[0].group != ElasticGroup {
		t.Fatalf("primary has %d cores, core 0 in %v", m.GroupCores(PrimaryGroup), m.cores[0].group)
	}
	m.checkInvariants(t)
}
