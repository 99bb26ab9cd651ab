package apps

import (
	"testing"

	"smartharvest/internal/hypervisor"
	"smartharvest/internal/sim"
)

func TestFiniteWorkCompletesExactly(t *testing.T) {
	loop, m := rig(t, 4)
	m.SetInitialSplit(0)
	vm := m.AddVM("job", hypervisor.ElasticGroup, 4, 4)
	done := false
	w := NewFiniteWork(vm, 8*sim.Second, func() { done = true })
	w.Start()
	loop.RunUntil(60 * sim.Second)
	if !done || !w.Done() {
		t.Fatal("job did not finish")
	}
	if w.Completed() != 8*sim.Second {
		t.Fatalf("completed %v, want exactly 8s", w.Completed())
	}
	// Perfectly parallel on 4 cores: ~2s wall time, and the VM burned
	// exactly the allotment.
	if got := vm.CPUTime(); got != 8*sim.Second {
		t.Fatalf("vm cpu time %v, want 8s", got)
	}
}

func TestFiniteWorkScalesWithCores(t *testing.T) {
	run := func(cores int) sim.Time {
		loop, m := rig(t, cores)
		m.SetInitialSplit(0)
		vm := m.AddVM("job", hypervisor.ElasticGroup, cores, cores)
		var at sim.Time
		w := NewFiniteWork(vm, 8*sim.Second, nil)
		w.Start()
		loop.NewTicker(0, sim.Millisecond, func() {
			if w.Done() && at == 0 {
				at = loop.Now()
			}
		})
		loop.RunUntil(60 * sim.Second)
		if !w.Done() {
			t.Fatal("not finished")
		}
		return at
	}
	t1, t4 := run(1), run(4)
	if speedup := float64(t1) / float64(t4); speedup < 3.7 || speedup > 4.05 {
		t.Fatalf("4-core speedup %v, want ~4 for perfectly parallel work", speedup)
	}
}

func TestFiniteWorkStopCheckpointsProgress(t *testing.T) {
	loop, m := rig(t, 2)
	m.SetInitialSplit(0)
	vm := m.AddVM("job", hypervisor.ElasticGroup, 2, 2)
	w := NewFiniteWork(vm, 10*sim.Second, nil)
	w.Start()
	loop.RunUntil(sim.Second) // 2 cores x 1s = ~2s of the 10s done
	progress := w.Stop()
	if w.Done() {
		t.Fatal("stopped job reports done")
	}
	if progress != w.Completed() {
		t.Fatalf("Stop returned %v, Completed says %v", progress, w.Completed())
	}
	// The checkpoint counts whole chunks only: no more than the elapsed
	// core-time, and within two in-flight chunks of it.
	if progress > 2*sim.Second || progress < 2*sim.Second-2*5*sim.Millisecond {
		t.Fatalf("checkpoint %v, want ~2s at chunk granularity", progress)
	}
	// A stopped job stays frozen: no further completions land.
	loop.RunUntil(5 * sim.Second)
	if w.Completed() != progress || w.Done() {
		t.Fatalf("progress moved after Stop: %v -> %v", progress, w.Completed())
	}
	// Stop is idempotent.
	if again := w.Stop(); again != progress {
		t.Fatalf("second Stop returned %v, want %v", again, progress)
	}
}

func TestFiniteWorkResumeNeverDoubleCounts(t *testing.T) {
	// Run a 6s allotment, evict midway, resume the remainder on a fresh
	// VM: total work executed across both placements must equal the
	// allotment plus the forfeited in-flight chunks — never less than
	// the allotment, and the sum of checkpoints exactly the allotment.
	loop, m := rig(t, 2)
	m.SetInitialSplit(0)
	vm := m.AddVM("job-a", hypervisor.ElasticGroup, 2, 2)
	const total = 6 * sim.Second
	w := NewFiniteWork(vm, total, nil)
	w.Start()
	loop.RunUntil(1500 * sim.Millisecond)
	ckpt := w.Stop()
	m.RemoveVM(vm)

	vm2 := m.AddVM("job-b", hypervisor.ElasticGroup, 2, 2)
	w2 := NewFiniteWork(vm2, total-ckpt, nil)
	w2.Start()
	loop.RunUntil(60 * sim.Second)
	if !w2.Done() {
		t.Fatal("resumed job did not finish")
	}
	if got := ckpt + w2.Completed(); got != total {
		t.Fatalf("checkpoints sum to %v, want exactly %v", got, total)
	}
}

func TestFiniteWorkBadTotalPanics(t *testing.T) {
	_, m := rig(t, 2)
	m.SetInitialSplit(0)
	vm := m.AddVM("job", hypervisor.ElasticGroup, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewFiniteWork(vm, 0, nil)
}
