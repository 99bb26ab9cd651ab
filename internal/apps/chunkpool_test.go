package apps

import (
	"fmt"
	"testing"

	"smartharvest/internal/hypervisor"
	"smartharvest/internal/sim"
)

// checkChunkFreeList walks w's chunk free list: a record returned twice
// shows up as a repeated pointer (a cycle), and a record on the list must be
// at rest. It returns the list's length.
func checkChunkFreeList(t *testing.T, w *FiniteWork) int {
	t.Helper()
	seen := map[*chunk]bool{}
	for k := w.free; k != nil; k = k.next {
		if seen[k] {
			t.Fatalf("chunk record %p is on the free list twice", k)
		}
		seen[k] = true
		if k.work != 0 || k.w != w {
			t.Fatalf("free chunk record holds work %v for %p (want 0, %p)", k.work, k.w, w)
		}
	}
	return len(seen)
}

// TestFiniteWorkChunkRecycling drives pooled chunk records through the ways
// a chunk can end other than by crediting its job: a Stop with chunks in
// flight on a live VM, the scheduler's evict path (Stop, remove the VM,
// resume the remainder on a new one), and a VM removed under a running job.
func TestFiniteWorkChunkRecycling(t *testing.T) {
	t.Run("stop-in-flight", func(t *testing.T) {
		loop, m := rig(t, 2)
		m.SetInitialSplit(0)
		vm := m.AddVM("job", hypervisor.ElasticGroup, 2, 2)
		w := NewFiniteWork(vm, 10*sim.Second, nil)
		w.Start()
		loop.RunUntil(sim.Second + 2*sim.Millisecond)
		// Every completion resubmits at once: both records are in flight.
		if n := checkChunkFreeList(t, w); n != 0 {
			t.Fatalf("%d chunk records at rest mid-run, want 0", n)
		}
		ckpt, cpu := w.Stop(), vm.CPUTime()
		loop.RunUntil(2 * sim.Second)
		if vm.CPUTime() <= cpu {
			t.Fatal("the in-flight chunks never ran after Stop")
		}
		// The two stale chunks completed on the live VM, came back once
		// each, and credited nothing; the job only ever made two records.
		if w.Completed() != ckpt || w.Done() {
			t.Fatalf("progress moved after Stop: %v -> %v (done %v)", ckpt, w.Completed(), w.Done())
		}
		if n := checkChunkFreeList(t, w); n != 2 {
			t.Fatalf("%d chunk records at rest after the stale completions, want 2", n)
		}
		// Drained: no vCPU holds work, so the VM, with every core, runs no more.
		cpu = vm.CPUTime()
		loop.RunUntil(3 * sim.Second)
		if vm.CPUTime() != cpu || vm.QueueLen() != 0 {
			t.Fatalf("the VM still runs work after Stop drained: cpu %v -> %v, queue %d", cpu, vm.CPUTime(), vm.QueueLen())
		}
	})

	t.Run("evict-and-resume", func(t *testing.T) {
		loop, m := rig(t, 4)
		m.SetInitialSplit(0)
		const total = 3 * sim.Second
		var (
			progress, last sim.Time // checkpointed across placements; last reading
			w              *FiniteWork
			works          []*FiniteWork
		)
		loop.NewTicker(0, 100*sim.Microsecond, func() {
			if got := progress + w.Completed(); got < last {
				t.Fatalf("progress went back from %v to %v at %v", last, got, loop.Now())
			} else {
				last = got
			}
		})
		for i := 1; ; i++ {
			vm := m.AddVM(fmt.Sprintf("job-a%d", i), hypervisor.ElasticGroup, 1+i%3, 1+i%3)
			w = NewFiniteWork(vm, total-progress, nil)
			w.Start()
			works = append(works, w)
			if i == 4 {
				loop.RunUntil(60 * sim.Second)
				break
			}
			loop.RunUntil(loop.Now() + 300*sim.Millisecond + 1234*sim.Microsecond)
			progress += w.Stop()
			m.RemoveVM(vm)
		}
		if !w.Done() || progress+w.Completed() != total {
			t.Fatalf("checkpoints sum to %v (done %v), want exactly %v", progress+w.Completed(), w.Done(), total)
		}
		for _, w := range works {
			checkChunkFreeList(t, w)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("remove-vm-mid-flight", func(t *testing.T) {
		loop, m := rig(t, 2)
		m.SetInitialSplit(0)
		vm := m.AddVM("job", hypervisor.ElasticGroup, 2, 2)
		w := NewFiniteWork(vm, 10*sim.Second, nil)
		w.Start()
		loop.RunUntil(sim.Second + 2*sim.Millisecond)
		m.RemoveVM(vm)
		got := w.Completed()
		loop.RunUntil(5 * sim.Second)
		// The VM dropped the in-flight chunks' work: their records never
		// come back, and nothing more is credited.
		if w.Completed() != got || w.Done() {
			t.Fatalf("progress moved after RemoveVM: %v -> %v (done %v)", got, w.Completed(), w.Done())
		}
		checkChunkFreeList(t, w)
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFiniteWorkChunkCompletingTwicePanics pins the recycling guard: a
// completion delivered to a record already back on the free list is a bug
// upstream, and with recycled records it would credit another chunk.
func TestFiniteWorkChunkCompletingTwicePanics(t *testing.T) {
	loop, m := rig(t, 1)
	m.SetInitialSplit(0)
	vm := m.AddVM("job", hypervisor.ElasticGroup, 1, 1)
	w := NewFiniteWork(vm, 10*sim.Millisecond, nil)
	w.Start()
	loop.RunUntil(sim.Second)
	k := w.free
	if k == nil || !w.Done() {
		t.Fatal("the job did not finish with its record back on the free list")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	k.fire()
}

// BenchmarkFiniteWork runs a width-4 finite-work job on a warmed 4-core
// machine; one op is one 5 ms chunk. Run with -benchmem for B/chunk.
func BenchmarkFiniteWork(b *testing.B) {
	loop, m := rig(b, 4)
	m.SetInitialSplit(0)
	vm := m.AddVM("job", hypervisor.ElasticGroup, 4, 4)
	w := NewFiniteWork(vm, 1<<62, nil)
	w.Start()
	loop.RunUntil(sim.Second) // the chunk pool and the run queues reach capacity
	before := w.Completed()
	b.ReportAllocs()
	b.ResetTimer()
	loop.RunUntil(loop.Now() + sim.Time(b.N)*w.chunk/4)
	b.StopTimer()
	if done := int((w.Completed() - before) / w.chunk); b.N > 1000 && (done < b.N*9/10 || done > b.N*11/10) {
		b.Fatalf("%d chunks completed over %d ops", done, b.N)
	}
}

// TestFiniteWorkZeroAllocs pins the running job at zero bytes a chunk. B/op,
// not AllocsPerOp, which is an integer division and reads anything under one
// allocation a chunk as 0; the total bounds what even B/op would round away.
func TestFiniteWorkZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed")
	}
	res := testing.Benchmark(BenchmarkFiniteWork)
	if res.N < 100000 {
		t.Fatalf("measured only %d chunks, want at least 100000", res.N)
	}
	if b := res.AllocedBytesPerOp(); b != 0 || res.MemAllocs*1000 > uint64(res.N) {
		t.Fatalf("finite work allocates %d B/chunk (%d allocs over %d chunks), want 0",
			b, res.MemAllocs, res.N)
	}
}

// BenchmarkBatchJob runs a one-phase batch job on a warmed 4-core machine;
// one op is one 5 ms chunk of its CPU phase. Run with -benchmem for
// B/chunk.
func BenchmarkBatchJob(b *testing.B) {
	loop, m := rig(b, 4)
	m.SetInitialSplit(0)
	vm := m.AddVM("job", hypervisor.ElasticGroup, 4, 4)
	NewBatchJob("bench", loop, vm, []BatchPhase{{Kind: CPUPhase, Work: 1 << 62}}, nil).Start()
	loop.RunUntil(sim.Second) // the chunk pool and the run queues reach capacity
	const chunk = 5 * sim.Millisecond
	before := vm.CPUTime()
	b.ReportAllocs()
	b.ResetTimer()
	loop.RunUntil(loop.Now() + sim.Time(b.N)*chunk/4)
	b.StopTimer()
	if done := int((vm.CPUTime() - before) / chunk); b.N > 1000 && (done < b.N*9/10 || done > b.N*11/10) {
		b.Fatalf("%d chunks completed over %d ops", done, b.N)
	}
}

// TestBatchJobZeroAllocs holds a running batch phase to zero bytes a
// chunk, on B/op as TestFiniteWorkZeroAllocs does.
func TestBatchJobZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed")
	}
	res := testing.Benchmark(BenchmarkBatchJob)
	if res.N < 100000 {
		t.Fatalf("measured only %d chunks, want at least 100000", res.N)
	}
	if b := res.AllocedBytesPerOp(); b != 0 || res.MemAllocs*1000 > uint64(res.N) {
		t.Fatalf("batch job allocates %d B/chunk (%d allocs over %d chunks), want 0",
			b, res.MemAllocs, res.N)
	}
}
