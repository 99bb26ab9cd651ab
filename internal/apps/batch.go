package apps

import (
	"fmt"

	"smartharvest/internal/hypervisor"
	"smartharvest/internal/sim"
)

// CPUBully is the paper's synthetic batch workload: a perfectly parallel,
// CPU-bound consumer that soaks up every core the ElasticVM is given. Its
// progress metric is simply the VM's accumulated CPU time, from which the
// harness derives "average cores harvested".
type CPUBully struct {
	loop    *sim.Loop
	vm      *hypervisor.VM
	chunk   sim.Time
	refill  func() // b.submitChunk, bound once: a chunk completion allocates nothing
	started bool
}

// NewCPUBully builds a bully on the given (elastic) VM.
func NewCPUBully(loop *sim.Loop, vm *hypervisor.VM) *CPUBully {
	b := &CPUBully{loop: loop, vm: vm, chunk: 10 * sim.Millisecond}
	b.refill = b.submitChunk
	return b
}

// Start floods every vCPU with self-refilling CPU-bound chunks.
func (b *CPUBully) Start() {
	if b.started {
		panic("apps: CPUBully started twice")
	}
	b.started = true
	for i := 0; i < b.vm.NumVCPUs(); i++ {
		b.refill()
	}
}

func (b *CPUBully) submitChunk() {
	b.vm.Submit(b.chunk, b.refill)
}

// PhaseKind distinguishes CPU-bound from I/O-bound batch phases.
type PhaseKind int

const (
	// CPUPhase consumes Work nanoseconds of CPU across up to
	// Parallelism concurrent threads.
	CPUPhase PhaseKind = iota
	// IOPhase waits for IOTime without consuming CPU (disk/network).
	IOPhase
)

// BatchPhase is one stage of a batch job.
type BatchPhase struct {
	Kind        PhaseKind
	Work        sim.Time // total CPU demand (CPUPhase)
	Parallelism int      // max concurrent threads (CPUPhase); 0 = all vCPUs
	IOTime      sim.Time // wall time (IOPhase)
}

// BatchJob runs a sequence of phases on a VM and records its completion
// time. CPU phases adapt to however many cores the hypervisor actually
// provides — more harvested cores, faster completion — which is what the
// paper's Figure 6 speedup measurements capture.
type BatchJob struct {
	name   string
	loop   *sim.Loop
	vm     *hypervisor.VM
	phases []BatchPhase
	chunk  sim.Time

	cur         int
	remaining   sim.Time
	outstanding int
	started     bool
	finished    bool
	finishedAt  sim.Time
	onDone      func(sim.Time)
	onPhase     func(phase, phases int, finished bool)
}

// NewBatchJob builds a job; onDone (optional) fires with the completion
// time when the last phase ends.
func NewBatchJob(name string, loop *sim.Loop, vm *hypervisor.VM, phases []BatchPhase, onDone func(sim.Time)) *BatchJob {
	if len(phases) == 0 {
		panic("apps: batch job with no phases")
	}
	for i, p := range phases {
		switch p.Kind {
		case CPUPhase:
			if p.Work <= 0 {
				panic(fmt.Sprintf("apps: phase %d: CPU phase needs positive work", i))
			}
		case IOPhase:
			if p.IOTime <= 0 {
				panic(fmt.Sprintf("apps: phase %d: IO phase needs positive time", i))
			}
		default:
			panic(fmt.Sprintf("apps: phase %d: unknown kind", i))
		}
	}
	return &BatchJob{
		name: name, loop: loop, vm: vm, phases: phases,
		chunk: 5 * sim.Millisecond, onDone: onDone,
	}
}

// Name returns the job's name.
func (j *BatchJob) Name() string { return j.name }

// NumPhases returns how many phases the job has.
func (j *BatchJob) NumPhases() int { return len(j.phases) }

// SetPhaseHook registers fn to run at every phase boundary: once when
// each phase starts (phase is 0-based), and a final time with
// phase == phases and finished set. Must be called before Start.
func (j *BatchJob) SetPhaseHook(fn func(phase, phases int, finished bool)) {
	if j.started {
		panic("apps: SetPhaseHook after Start")
	}
	j.onPhase = fn
}

// Finished reports completion; FinishedAt is valid once true.
func (j *BatchJob) Finished() bool { return j.finished }

// FinishedAt returns when the job completed.
func (j *BatchJob) FinishedAt() sim.Time { return j.finishedAt }

// Start begins phase 0.
func (j *BatchJob) Start() {
	if j.started {
		panic("apps: batch job started twice")
	}
	j.started = true
	j.cur = -1
	j.nextPhase()
}

func (j *BatchJob) nextPhase() {
	j.cur++
	if j.cur >= len(j.phases) {
		j.finished = true
		j.finishedAt = j.loop.Now()
		if j.onPhase != nil {
			j.onPhase(j.cur, len(j.phases), true)
		}
		if j.onDone != nil {
			j.onDone(j.finishedAt)
		}
		return
	}
	if j.onPhase != nil {
		j.onPhase(j.cur, len(j.phases), false)
	}
	p := j.phases[j.cur]
	switch p.Kind {
	case IOPhase:
		j.loop.After(p.IOTime, j.nextPhase)
	case CPUPhase:
		j.remaining = p.Work
		j.pump()
	}
}

// pump keeps up to Parallelism chunks outstanding for the current CPU
// phase, advancing to the next phase when all work has executed.
func (j *BatchJob) pump() {
	p := j.phases[j.cur]
	par := p.Parallelism
	if par <= 0 || par > j.vm.NumVCPUs() {
		par = j.vm.NumVCPUs()
	}
	for j.remaining > 0 && j.outstanding < par {
		c := j.chunk
		if c > j.remaining {
			c = j.remaining
		}
		j.remaining -= c
		j.outstanding++
		phase := j.cur
		j.vm.Submit(c, func() {
			j.outstanding--
			// Guard against a stale completion racing a phase change
			// (cannot happen with the current pump logic, but cheap).
			if j.cur != phase {
				return
			}
			if j.remaining > 0 {
				j.pump()
			} else if j.outstanding == 0 {
				j.nextPhase()
			}
		})
	}
}

// HDInsight models the paper's ML-training batch job (one TensorFlow
// logistic-regression iteration over 2 GB): iterations of a short serial
// section followed by a large parallel section. The serial fraction caps
// its speedup (Amdahl), matching the ~3x the paper reports.
func HDInsight(loop *sim.Loop, vm *hypervisor.VM, onDone func(sim.Time)) *BatchJob {
	const (
		iterations = 12
		serialWork = 120 * sim.Millisecond
		parWork    = 2400 * sim.Millisecond
	)
	var phases []BatchPhase
	for i := 0; i < iterations; i++ {
		phases = append(phases,
			BatchPhase{Kind: CPUPhase, Work: serialWork, Parallelism: 1},
			BatchPhase{Kind: CPUPhase, Work: parWork},
		)
	}
	return NewBatchJob("hdinsight", loop, vm, phases, onDone)
}

// TeraSort models Hadoop TeraSort over 10 M records: CPU-bound map and
// sort stages separated by I/O-bound read/shuffle/write stages. The I/O
// stages consume no CPU, capping speedup below HDInsight's — the paper
// reports ~2x.
func TeraSort(loop *sim.Loop, vm *hypervisor.VM, onDone func(sim.Time)) *BatchJob {
	phases := []BatchPhase{
		{Kind: IOPhase, IOTime: 2 * sim.Second},                // read
		{Kind: CPUPhase, Work: 14 * sim.Second},                // map/partition
		{Kind: IOPhase, IOTime: 3 * sim.Second},                // shuffle
		{Kind: CPUPhase, Work: 16 * sim.Second},                // sort/merge
		{Kind: IOPhase, IOTime: 2 * sim.Second},                // write
		{Kind: CPUPhase, Work: 2 * sim.Second, Parallelism: 2}, // finalize
	}
	return NewBatchJob("terasort", loop, vm, phases, onDone)
}
