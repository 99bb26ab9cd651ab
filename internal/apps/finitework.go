package apps

import (
	"fmt"

	"smartharvest/internal/hypervisor"
	"smartharvest/internal/sim"
)

// FiniteWork generalizes CPUBully to a finite allotment: a perfectly
// parallel CPU-bound job that consumes exactly Work core-time and then
// stops. It is the workload unit of the fleet scheduler (internal/sched):
// unlike BatchJob's phase structure, FiniteWork supports preemption with
// checkpointed progress — Stop halts the job and reports how much work
// completed, so an evicted job can be resumed elsewhere with only its
// unfinished chunks re-run, never double-counting work.
type FiniteWork struct {
	loop  *sim.Loop
	vm    *hypervisor.VM
	total sim.Time // CPU work still owed when started
	chunk sim.Time

	submitted   sim.Time // work handed to the VM so far
	completed   sim.Time // work whose chunks have finished
	outstanding int
	width       int // optional parallelism cap below the vCPU count
	gen         int // bumped by Stop to invalidate in-flight completions

	started bool
	stopped bool
	done    bool
	onDone  func()

	// In-flight chunks are pooled records: once the pool holds one per
	// vCPU, running the allotment allocates nothing per chunk.
	free *chunk
}

// chunk is one in-flight chunk of work. The FiniteWork owns the record:
// pump takes it from the free list and its completion puts it back before
// crediting the work, so the VM only ever holds the fire callback. A chunk
// in flight across a Stop comes back the same way and credits nothing (its
// gen is stale); one whose VM was removed never comes back and is garbage.
type chunk struct {
	w    *FiniteWork
	work sim.Time // 0 while the record is on the free list
	gen  int
	fire func() // k.done, bound once when the record is created
	next *chunk
}

// NewFiniteWork builds a finite-work job on vm owing total CPU work;
// onDone (optional) fires exactly once when the allotment completes.
// Parallelism is bounded by the VM's vCPU count.
func NewFiniteWork(loop *sim.Loop, vm *hypervisor.VM, total sim.Time, onDone func()) *FiniteWork {
	if total <= 0 {
		panic(fmt.Sprintf("apps: finite work needs positive total, got %v", total))
	}
	return &FiniteWork{
		loop: loop, vm: vm, total: total,
		chunk: 5 * sim.Millisecond, onDone: onDone,
	}
}

// LimitParallelism caps the job's parallelism below the VM's vCPU count
// (a job narrower than its host). Must be called before Start; n < 1
// panics.
func (w *FiniteWork) LimitParallelism(n int) {
	if n < 1 {
		panic(fmt.Sprintf("apps: finite work parallelism %d", n))
	}
	if w.started {
		panic("apps: LimitParallelism after Start")
	}
	w.width = n
}

// Start begins consuming the allotment.
func (w *FiniteWork) Start() {
	if w.started {
		panic("apps: finite work started twice")
	}
	w.started = true
	w.pump()
}

// Done reports whether the full allotment has completed.
func (w *FiniteWork) Done() bool { return w.done }

// Completed returns the CPU work finished so far, at chunk granularity.
// This is the checkpoint a scheduler carries across an eviction: chunks
// in flight when Stop is called are not counted, so the work they held
// is re-run on the next placement rather than double-counted.
func (w *FiniteWork) Completed() sim.Time { return w.completed }

// Stop preempts the job: in-flight chunks are invalidated (their work is
// forfeited back into the remainder) and no further work is submitted.
// It returns the checkpointed progress. Stopping a finished or already
// stopped job is a no-op.
func (w *FiniteWork) Stop() sim.Time {
	if !w.stopped && !w.done {
		w.stopped = true
		w.gen++
		w.outstanding = 0
		w.submitted = w.completed
	}
	return w.completed
}

// pump keeps up to one chunk per vCPU outstanding until the allotment is
// fully submitted.
func (w *FiniteWork) pump() {
	par := w.vm.NumVCPUs()
	if w.width > 0 && w.width < par {
		par = w.width
	}
	for w.submitted < w.total && w.outstanding < par {
		c := w.chunk
		if rest := w.total - w.submitted; c > rest {
			c = rest
		}
		w.submitted += c
		w.outstanding++
		k := w.free
		if k == nil {
			k = &chunk{w: w}
			k.fire = k.done
		} else {
			w.free, k.next = k.next, nil
		}
		k.work, k.gen = c, w.gen
		w.vm.Submit(c, k.fire)
	}
}

// done returns the record to the free list, then credits its work.
func (k *chunk) done() {
	if k.work == 0 {
		panic("apps: a finite-work chunk completed twice")
	}
	w, c, gen := k.w, k.work, k.gen
	k.work = 0
	k.next, w.free = w.free, k
	w.complete(c, gen)
}

func (w *FiniteWork) complete(c sim.Time, gen int) {
	if gen != w.gen {
		return // stale completion from before a Stop
	}
	w.outstanding--
	w.completed += c
	if w.completed >= w.total {
		w.done = true
		if w.onDone != nil {
			w.onDone()
		}
		return
	}
	w.pump()
}
