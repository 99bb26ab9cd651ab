package hypervisor

import (
	"errors"
	"fmt"
	"math"

	"smartharvest/internal/grammar"
	"smartharvest/internal/metrics"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// GroupID identifies one of the two non-overlapping cpugroups the agent
// maintains: one shared by all primary VMs (working cores plus the idle
// buffer) and one for the ElasticVM.
type GroupID int

const (
	// PrimaryGroup holds the cores of all primary VMs.
	PrimaryGroup GroupID = iota
	// ElasticGroup holds the ElasticVM's cores, including harvested ones.
	ElasticGroup

	numGroups
)

var groupNames = grammar.Enum[GroupID]{Names: []string{"primary", "elastic"}}

func (g GroupID) String() string { return groupNames.String(g) }

// VCPU is a virtual CPU of a VM. Guest work occupies exactly one vCPU.
type VCPU struct {
	vm         *VM
	remaining  sim.Time // work left in the current item
	done       func()   // invoked when the current item completes
	readySince sim.Time
	core       *Core
}

// VM is a virtual machine: a named set of vCPUs inside one cpugroup, plus
// a guest-side run queue for work submitted when every vCPU is busy.
type VM struct {
	m     *Machine
	name  string
	group GroupID
	alloc int // cap on simultaneously-running physical cores

	vcpus   []VCPU     // one array, allocated by AddVM
	idle    []*VCPU    // stack of idle vCPUs, with room for all of them
	queue   []workItem // guest run queue: the waiting items are queue[qhead:]
	qhead   int        // slots before it are popped and hold the zero workItem
	running int        // vCPUs currently dispatched
	cpuTime sim.Time   // total work executed
	removed bool       // VM has been deregistered; Submit becomes a no-op
}

type workItem struct {
	work sim.Time
	done func()
}

// NumVCPUs returns the number of virtual CPUs.
func (vm *VM) NumVCPUs() int { return len(vm.vcpus) }

// CPUTime returns the cumulative virtual-CPU time the VM's work has
// actually executed for.
func (vm *VM) CPUTime() sim.Time { return vm.cpuTime }

// QueueLen returns the number of guest work items waiting for a vCPU.
func (vm *VM) QueueLen() int { return len(vm.queue) - vm.qhead }

// Removed reports whether the VM has been deregistered.
func (vm *VM) Removed() bool { return vm.removed }

// Submit hands the guest a unit of CPU-bound work. It runs on an idle
// vCPU immediately, or waits in the guest run queue. done (optional) fires
// when the work has fully executed. Work below 1 ns is clamped up.
func (vm *VM) Submit(work sim.Time, done func()) {
	if vm.removed {
		return
	}
	if work < 1 {
		work = 1
	}
	if n := len(vm.idle); n > 0 {
		v := vm.idle[n-1]
		vm.idle = vm.idle[:n-1]
		v.remaining = work
		v.done = done
		vm.m.wake(v)
		return
	}
	// Popped slots are reclaimed by sliding the waiting items down, but
	// only where append would otherwise grow the slice, and only once they
	// are half of it, so a standing backlog costs O(1) amortized a request.
	if h, n := vm.qhead, len(vm.queue); n == cap(vm.queue) && h > 0 && 2*h >= n {
		live := copy(vm.queue, vm.queue[h:])
		clear(vm.queue[live:])
		vm.queue, vm.qhead = vm.queue[:live], 0
	}
	vm.queue = append(vm.queue, workItem{work: work, done: done})
}

// releaseVCPU returns v to the idle pool, or immediately reuses it for the
// next queued guest work item.
func (vm *VM) releaseVCPU(v *VCPU) {
	if vm.qhead < len(vm.queue) {
		item := vm.queue[vm.qhead]
		// Zero the slot: a popped completion must not stay reachable.
		vm.queue[vm.qhead] = workItem{}
		if vm.qhead++; vm.qhead == len(vm.queue) {
			vm.queue, vm.qhead = vm.queue[:0], 0
		}
		v.remaining = item.work
		v.done = item.done
		vm.m.wake(v)
		return
	}
	v.done = nil
	vm.idle = append(vm.idle, v)
}

// checkQueue verifies the guest run queue: the head stays inside the slice
// (and at 0 when nothing waits), work waits only while every vCPU is busy,
// and no slot outside queue[qhead:] still holds a completion.
func (vm *VM) checkQueue() error {
	h, n := vm.qhead, len(vm.queue)
	if h < 0 || h > n || (h == n && h != 0) || vm.QueueLen() != n-h {
		return fmt.Errorf("hypervisor: VM %s guest queue head %d, len %d, QueueLen %d", vm.name, h, n, vm.QueueLen())
	}
	if vm.QueueLen() > 0 && len(vm.idle) > 0 {
		return fmt.Errorf("hypervisor: VM %s queues %d items beside %d idle vCPUs", vm.name, vm.QueueLen(), len(vm.idle))
	}
	for i, it := range vm.queue[:cap(vm.queue)] {
		if (i < h || i >= n) && (it.done != nil || it.work != 0) {
			return fmt.Errorf("hypervisor: VM %s guest queue slot %d (head %d, len %d) not zeroed", vm.name, i, h, n)
		}
	}
	return nil
}

// Core is a physical core.
type Core struct {
	id    int
	group GroupID

	running    *VCPU
	sliceEvent *sim.Event
	sliceEnd   func()   // m.sliceEnd(c), bound once in New: arming a slice allocates nothing
	workStart  sim.Time // when the current slice's work began (post-overhead)
	sliceWork  sim.Time // work consumed if the slice runs to completion

	pending      bool
	pendingGroup GroupID
	pendingSince sim.Time
	eligible     bool // hypercalls have completed; effect may be applied
	effectEvent  *sim.Event

	// The move-effect callbacks, bound once in New like sliceEnd, so a
	// core move allocates nothing.
	ipiEffect         func() // m.ipiEffect(c)
	cpugroupsEligible func() // m.cpugroupsEligible(c)
	idleScan          func() // m.idleScan(c)
}

// Machine is the simulated server: cores, groups, VMs and the reassignment
// machinery. All methods must be called from the simulation goroutine.
type Machine struct {
	cfg  Config
	loop *sim.Loop
	rng  *simrng.Rand

	cores  []*Core
	queues [numGroups][]*VCPU // ready queues
	counts [numGroups]int     // physical core counts
	busy   [numGroups]int     // cores of each group with a vCPU on them
	vms    []*VM

	logical [numGroups]int // physical counts adjusted for pending moves

	ipiMu, ipiSigma float64 // log-normal parameters for IPI effect delay

	// Instrumentation.
	waitThreshold sim.Time            // a primary dispatch wait above it counts as over
	waits, over   int                 // primary dispatch waits since the last drain, and those over
	growLatency   *metrics.Histogram  // elastic +1 core: request -> effect
	shrinkLatency *metrics.Histogram  // elastic -1 core: request -> effect
	coreTime      [numGroups]sim.Time // core-time of each group up to accruedAt
	accruedAt     sim.Time
}

// New constructs a machine on the given loop. All cores start in the
// primary group; call SetInitialSplit before running the workload.
func New(loop *sim.Loop, cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:           cfg,
		loop:          loop,
		rng:           simrng.New(cfg.Seed),
		growLatency:   metrics.NewHistogram(),
		shrinkLatency: metrics.NewHistogram(),
	}
	mean := float64(cfg.IPIEffectMean)
	ratio := float64(cfg.IPIEffectP99) / math.Max(mean, 1)
	if ratio <= 1 {
		ratio = 1.0000001
	}
	m.ipiMu, m.ipiSigma = simrng.LogNormalParams(mean, ratio)
	for i := 0; i < cfg.TotalCores; i++ {
		c := &Core{id: i, group: PrimaryGroup}
		c.sliceEnd = func() { m.sliceEnd(c) }
		c.ipiEffect = func() { m.ipiEffect(c) }
		c.cpugroupsEligible = func() { m.cpugroupsEligible(c) }
		c.idleScan = func() { m.idleScan(c) }
		m.cores = append(m.cores, c)
	}
	m.counts[PrimaryGroup] = cfg.TotalCores
	m.logical[PrimaryGroup] = cfg.TotalCores
	m.accruedAt = loop.Now()
	return m, nil
}

// TotalCores returns the pool size.
func (m *Machine) TotalCores() int { return m.cfg.TotalCores }

// AddVM registers a VM with the given number of vCPUs in a group. alloc
// caps how many physical cores the VM may occupy simultaneously (for
// primary VMs this equals vcpus; the ElasticVM has vcpus == TotalCores).
func (m *Machine) AddVM(name string, group GroupID, vcpus, alloc int) *VM {
	if vcpus <= 0 || alloc <= 0 {
		panic("hypervisor: VM needs at least one vCPU and one allocated core")
	}
	vm := &VM{m: m, name: name, group: group, alloc: alloc,
		vcpus: make([]VCPU, vcpus), idle: make([]*VCPU, vcpus)}
	for i := range vm.vcpus {
		v := &vm.vcpus[i]
		*v = VCPU{vm: vm}
		vm.idle[i] = v
	}
	m.vms = append(m.vms, vm)
	return vm
}

// RemoveVM deregisters a VM, as when a tenant's deployment is deleted:
// running vCPUs are stopped immediately (their consumed work is
// credited), ready vCPUs leave the run queue, and queued guest work is
// discarded. The VM's cores do not move anywhere by themselves — they
// become harvestable capacity the moment the agent lowers its notion of
// the primary allocation.
func (m *Machine) RemoveVM(vm *VM) {
	idx := -1
	for i, v := range m.vms {
		if v == vm {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("hypervisor: RemoveVM of unregistered VM")
	}
	m.vms = append(m.vms[:idx], m.vms[idx+1:]...)

	// Mark removed and drop queued guest work first, so completion
	// callbacks fired while tearing down cannot resubmit and the guest
	// queue cannot refill freed vCPUs.
	vm.removed = true
	vm.queue, vm.qhead = nil, 0

	// Stop running vCPUs.
	freed := false
	for _, c := range m.cores {
		if c.running != nil && c.running.vm == vm {
			m.preempt(c) // credits consumed work, requeues the vCPU
			freed = true
		}
	}
	// Purge every vCPU of the VM from the ready queue (including the
	// ones preempt just requeued).
	q := m.queues[vm.group][:0]
	for _, v := range m.queues[vm.group] {
		if v.vm != vm {
			q = append(q, v)
		} else {
			v.done = nil
		}
	}
	m.queues[vm.group] = q
	if freed {
		m.trySchedule(vm.group)
	}
}

// SetInitialSplit instantly places primaryCores cores in the primary group
// and the rest in the elastic group, with no hypercall or effect latency.
// It must be called before the workload starts (setup time).
func (m *Machine) SetInitialSplit(primaryCores int) {
	if primaryCores < 0 || primaryCores > m.cfg.TotalCores {
		panic(fmt.Sprintf("hypervisor: initial split %d out of range", primaryCores))
	}
	m.accrue()
	m.busy = [numGroups]int{}
	for i, c := range m.cores {
		g := PrimaryGroup
		if i >= primaryCores {
			g = ElasticGroup
		}
		c.group = g
		c.pending = false
		if c.running != nil {
			m.busy[g]++
		}
	}
	m.counts[PrimaryGroup] = primaryCores
	m.counts[ElasticGroup] = m.cfg.TotalCores - primaryCores
	m.logical = m.counts
}

// GroupCores returns the number of physical cores currently in g.
func (m *Machine) GroupCores(g GroupID) int { return m.counts[g] }

// BusyCores returns how many cores of group g are currently executing a
// vCPU. This is the paper's conservative "busy" signal: a core counts as
// busy iff an active software thread is on it at the instant of the query.
// The agent asks every 50 µs, so the count is kept current by the sites
// that change a core's running vCPU or group (dispatch, sliceEnd, preempt,
// applyMove, SetInitialSplit) instead of scanned; CheckInvariants compares
// it with the scan.
func (m *Machine) BusyCores(g GroupID) int { return m.busy[g] }

// SetPrimaryWaitThreshold sets the dispatch wait above which
// DrainPrimaryWaitCounts counts a primary dispatch as over: the agent's
// QoSWaitThreshold, which the machine does not default.
func (m *Machine) SetPrimaryWaitThreshold(threshold sim.Time) { m.waitThreshold = threshold }

// DrainPrimaryWaitCounts returns how many primary vCPU dispatches there
// were since the previous call and how many of them waited longer than
// the threshold, and resets both counts. The agent's long-term safeguard
// reads them every 500 ms.
func (m *Machine) DrainPrimaryWaitCounts() (waits, over int) {
	waits, over = m.waits, m.over
	m.waits, m.over = 0, 0
	return waits, over
}

// GrowLatency returns the histogram of request-to-effect latency for cores
// moving into the elastic group (ElasticVM growth), reproducing Fig 14.
func (m *Machine) GrowLatency() *metrics.Histogram { return m.growLatency }

// ShrinkLatency returns the histogram for cores leaving the elastic group.
func (m *Machine) ShrinkLatency() *metrics.Histogram { return m.shrinkLatency }

// CoreTime returns the integral of g's physical core count over time
// since the machine was built, in core-nanoseconds. It is exact: the
// difference of two readings divided by the time between them is g's
// average core count over that interval.
func (m *Machine) CoreTime(g GroupID) sim.Time {
	return m.coreTime[g] + sim.Time(m.counts[g])*(m.loop.Now()-m.accruedAt)
}

// accrue folds the core counts in force since accruedAt into coreTime;
// it runs before any group's count changes.
func (m *Machine) accrue() {
	for g := range m.coreTime {
		m.coreTime[g] = m.CoreTime(GroupID(g))
	}
	m.accruedAt = m.loop.Now()
}

// CheckInvariants verifies the machine's internal accounting: physical and
// logical core counts both sum to TotalCores (core conservation across the
// two groups), per-group counts and running busy-core counts match the
// cores actually assigned, every running vCPU's back-pointer is coherent,
// and no VM runs more vCPUs than its allocation. It returns a descriptive
// error for the first violation found, or nil. The soak/property tests
// call it between random operations, and internal/check folds it into a
// run's end-of-run verification.
func (m *Machine) CheckInvariants() error {
	sumPhys, sumLog := 0, 0
	for g := GroupID(0); g < numGroups; g++ {
		sumPhys += m.counts[g]
		sumLog += m.logical[g]
	}
	if sumPhys != m.cfg.TotalCores || sumLog != m.cfg.TotalCores {
		return fmt.Errorf("hypervisor: core conservation violated: physical %d, logical %d, total %d",
			sumPhys, sumLog, m.cfg.TotalCores)
	}
	perGroup := map[GroupID]int{}
	var busy [numGroups]int
	running := map[*VM]int{}
	for _, c := range m.cores {
		perGroup[c.group]++
		if c.running != nil {
			busy[c.group]++
			running[c.running.vm]++
			if c.running.core != c {
				return fmt.Errorf("hypervisor: vCPU/core back-pointer mismatch on core %d", c.id)
			}
		}
	}
	for g := GroupID(0); g < numGroups; g++ {
		if perGroup[g] != m.counts[g] {
			return fmt.Errorf("hypervisor: group %v count %d != actual %d", g, m.counts[g], perGroup[g])
		}
	}
	if busy != m.busy {
		return fmt.Errorf("hypervisor: busy-core counts %v != actual %v", m.busy, busy)
	}
	for _, vm := range m.vms {
		if err := vm.checkQueue(); err != nil {
			return err
		}
	}
	for vm, n := range running {
		if n != vm.running {
			return fmt.Errorf("hypervisor: VM %s running count %d != actual %d", vm.name, vm.running, n)
		}
		if n > vm.alloc {
			return fmt.Errorf("hypervisor: VM %s exceeds alloc: %d running > %d", vm.name, n, vm.alloc)
		}
	}
	return nil
}

// ResizeLatency returns how long the hypercalls for one resize take on the
// current mechanism; the agent is blocked for this long when it resizes.
func (m *Machine) ResizeLatency() sim.Time {
	if m.cfg.Mechanism == IPI {
		return m.cfg.HypercallLatency // single merge-call
	}
	return sim.Time(m.cfg.CpuGroupsHypercalls) * m.cfg.HypercallLatency
}

// ResizeStatus classifies the outcome of a SetPrimaryCores request.
type ResizeStatus int

const (
	// ResizeApplied: the request initiated core moves.
	ResizeApplied ResizeStatus = iota
	// ResizeNoop: the group already had the requested size.
	ResizeNoop
	// ResizeRejected: the request was invalid (outside [0, TotalCores])
	// and nothing was changed.
	ResizeRejected
	// ResizeFailed: the hypercall transiently failed (fault injection);
	// nothing was changed and the caller may retry.
	ResizeFailed
)

var resizeNames = grammar.Enum[ResizeStatus]{Names: []string{"applied", "noop", "rejected", "failed"}}

func (s ResizeStatus) String() string { return resizeNames.String(s) }

// Sentinel errors a SetPrimaryCores caller can test with errors.Is.
var (
	ErrResizeRejected = errors.New("hypervisor: resize rejected: target outside [0, TotalCores]")
	ErrResizeFailed   = errors.New("hypervisor: resize hypercall failed transiently")
)

// ResizeOutcome reports what one SetPrimaryCores request did. Latency is
// the hypercall issue time the caller was blocked for (including any
// injected spike); it is zero for no-ops and rejections, which never
// reach the hypervisor.
type ResizeOutcome struct {
	Status  ResizeStatus
	Latency sim.Time
}

// ResizeFaults lets a fault injector intercept resize hypercalls. A
// non-nil implementation is consulted once per accepted non-no-op
// request; it returns whether the hypercall fails outright and any extra
// issue latency (a spike) to add either way. See internal/faults.
type ResizeFaults interface {
	ResizeFault() (fail bool, extra sim.Time)
}

// SetPrimaryCores requests that the primary group contain n physical cores
// (and the elastic group the remainder). The request is applied with the
// configured mechanism's latency. A request outside [0, TotalCores] is
// rejected without touching any core; a request for the current size is a
// no-op. With fault injection configured, a request may also fail
// transiently — the group state is then unchanged and the caller is
// expected to retry.
func (m *Machine) SetPrimaryCores(n int) (ResizeOutcome, error) {
	if n < 0 || n > m.cfg.TotalCores {
		return ResizeOutcome{Status: ResizeRejected}, ErrResizeRejected
	}
	delta := n - m.logical[PrimaryGroup]
	if delta == 0 {
		return ResizeOutcome{Status: ResizeNoop}, nil
	}
	lat := m.ResizeLatency()
	if f := m.cfg.Faults; f != nil {
		fail, extra := f.ResizeFault()
		lat += extra
		if fail {
			return ResizeOutcome{Status: ResizeFailed, Latency: lat}, ErrResizeFailed
		}
	}
	if o := m.cfg.Observer; o != nil {
		o.OnResize(obs.Resize{
			At:        m.loop.Now(),
			FromCores: m.logical[PrimaryGroup],
			ToCores:   n,
			Mechanism: m.cfg.Mechanism.String(),
			Latency:   lat,
		})
	}
	from, to := ElasticGroup, PrimaryGroup
	k := delta
	if delta < 0 {
		from, to = PrimaryGroup, ElasticGroup
		k = -delta
	}
	m.moveCores(from, to, k, lat)
	return ResizeOutcome{Status: ResizeApplied, Latency: lat}, nil
}

// moveCores initiates the move of k cores from one group to another;
// hypercalls complete issueLat from now.
func (m *Machine) moveCores(from, to GroupID, k int, issueLat sim.Time) {
	now := m.loop.Now()
	// First, cancel opposite in-flight moves: cores physically in `to`
	// that are pending a move into `from`. Undoing a not-yet-effective
	// hypercall is modeled as free (the merged cpugroup state simply no
	// longer includes the move).
	for _, c := range m.cores {
		if k == 0 {
			break
		}
		if c.pending && c.group == to && c.pendingGroup == from {
			m.cancelPending(c)
			k--
		}
	}
	if k == 0 {
		return
	}
	issueDone := now + issueLat
	// Prefer idle cores: they move without preempting work.
	pick := func(wantIdle bool) {
		for _, c := range m.cores {
			if k == 0 {
				return
			}
			if c.pending || c.group != from {
				continue
			}
			if wantIdle != (c.running == nil) {
				continue
			}
			m.beginMove(c, to, issueDone)
			k--
		}
	}
	pick(true)
	pick(false)
	// If k is still positive the caller raced itself badly (every core
	// already pending); that indicates a policy bug.
	if k > 0 {
		panic(fmt.Sprintf("hypervisor: cannot find %d cores to move %v->%v", k, from, to))
	}
}

// beginMove marks core c as pending a move to group `to`, with hypercalls
// completing at issueDone, and schedules the mechanism-specific effect.
func (m *Machine) beginMove(c *Core, to GroupID, issueDone sim.Time) {
	c.pending = true
	c.pendingGroup = to
	c.pendingSince = m.loop.Now()
	c.eligible = false
	m.logical[c.group]--
	m.logical[to]++

	switch m.cfg.Mechanism {
	case IPI:
		// Single merge hypercall plus IPI delivery; preemptive.
		delay := sim.Time(m.rng.LogNormal(m.ipiMu, m.ipiSigma))
		if delay < 5*sim.Microsecond {
			delay = 5 * sim.Microsecond
		}
		c.effectEvent = m.loop.After(delay, c.ipiEffect)
	case CpuGroups:
		c.effectEvent = m.loop.At(issueDone, c.cpugroupsEligible)
	}
}

// cancelPending aborts an in-flight move for core c.
func (m *Machine) cancelPending(c *Core) {
	m.logical[c.pendingGroup]--
	m.logical[c.group]++
	c.pending = false
	c.eligible = false
	m.loop.Cancel(c.effectEvent)
	c.effectEvent = nil
}

// ipiEffect applies a pending move immediately, preempting any running
// vCPU (the IPI stops VM execution on the core).
func (m *Machine) ipiEffect(c *Core) {
	if !c.pending {
		return
	}
	from := c.group
	// The IPI has landed: from here any scheduling event on c effects the
	// move. One can happen inside preempt — the preempted item completes
	// exactly now and its successor or its callback dispatches — and must
	// take the core's move, not the core.
	c.eligible = true
	if c.running != nil {
		m.preempt(c)
	}
	if c.pending {
		m.applyMove(c)
	}
	// The preempted vCPU (if any) waits in the old group's queue; give
	// the old group a chance to place it on another of its cores.
	m.trySchedule(from)
}

// cpugroupsEligible marks the move as past its hypercalls. Idle cores are
// picked up by the idle-rebalance scan; running cores move at the end of
// their current timeslice (the next scheduling event on that core).
func (m *Machine) cpugroupsEligible(c *Core) {
	if !c.pending {
		return
	}
	c.eligible = true
	c.effectEvent = nil
	if c.running == nil {
		m.scheduleIdleScan(c)
	}
	// If running: the sliceEnd handler applies the move.
}

// scheduleIdleScan arranges for core c's pending move to be applied at the
// core's next idle-rebalance scan. Scans are staggered per core to avoid
// lockstep artifacts, as on real hardware.
func (m *Machine) scheduleIdleScan(c *Core) {
	period := m.cfg.IdleRebalancePeriod
	offset := sim.Time(c.id) * period / sim.Time(len(m.cores))
	now := m.loop.Now()
	// Next t >= now with t ≡ offset (mod period).
	n := (now - offset + period - 1) / period
	if n < 0 {
		n = 0
	}
	at := offset + n*period
	if at < now {
		at += period
	}
	c.effectEvent = m.loop.At(at, c.idleScan)
}

// idleScan is core c's idle-rebalance scan: it applies c's eligible pending
// move if the core is still idle.
func (m *Machine) idleScan(c *Core) {
	if !c.pending || !c.eligible {
		return
	}
	if c.running != nil {
		// Core got dispatched in the meantime; the slice-end
		// scheduling event will apply the move instead.
		c.effectEvent = nil
		return
	}
	m.applyMove(c)
}

// applyMove transfers the (idle) core to its pending group and records the
// effect latency.
func (m *Machine) applyMove(c *Core) {
	if c.running != nil {
		// Only idle cores change group, which is also why the move leaves
		// both groups' busy counts alone.
		panic("hypervisor: applyMove on a running core")
	}
	from, to := c.group, c.pendingGroup
	lat := int64(m.loop.Now() - c.pendingSince)
	if to == ElasticGroup {
		m.growLatency.Record(lat)
	} else if from == ElasticGroup {
		m.shrinkLatency.Record(lat)
	}
	m.loop.Cancel(c.effectEvent)
	c.effectEvent = nil
	c.pending = false
	c.eligible = false
	c.group = to
	m.accrue()
	m.counts[from]--
	m.counts[to]++
	m.trySchedule(to)
}

// preempt stops the vCPU running on c mid-slice, crediting completed work
// and requeueing the remainder.
func (m *Machine) preempt(c *Core) {
	v := c.running
	now := m.loop.Now()
	consumed := sim.Time(0)
	if now > c.workStart {
		consumed = now - c.workStart
	}
	if consumed > c.sliceWork {
		consumed = c.sliceWork
	}
	m.loop.Cancel(c.sliceEvent)
	c.sliceEvent = nil
	v.remaining -= consumed
	v.vm.cpuTime += consumed
	v.vm.running--
	c.running = nil
	m.busy[c.group]--
	if v.remaining <= 0 {
		m.finishWork(v)
	} else {
		v.readySince = now
		v.core = nil
		m.queues[v.vm.group] = append(m.queues[v.vm.group], v)
	}
}

// wake marks v ready and attempts to dispatch it.
func (m *Machine) wake(v *VCPU) {
	v.readySince = m.loop.Now()
	g := v.vm.group
	m.queues[g] = append(m.queues[g], v)
	m.trySchedule(g)
}

// trySchedule dispatches ready vCPUs of group g onto idle cores of g,
// applying eligible pending moves it encounters (dispatch attempts are
// scheduling events).
func (m *Machine) trySchedule(g GroupID) {
	for len(m.queues[g]) > 0 {
		core := m.findIdleCore(g)
		if core == nil {
			return
		}
		v := m.popEligible(g)
		if v == nil {
			return
		}
		m.dispatch(core, v)
	}
}

// findIdleCore returns an idle core of group g, applying any eligible
// pending moves discovered along the way (which may remove cores from g or
// hand them to the other group).
func (m *Machine) findIdleCore(g GroupID) *Core {
	for _, c := range m.cores {
		if c.group != g || c.running != nil {
			continue
		}
		if c.pending && c.eligible {
			// The scheduling event effects the change instead of
			// dispatching old-group work.
			m.applyMove(c)
			continue
		}
		return c
	}
	return nil
}

// popEligible removes and returns the first ready vCPU of g whose VM is
// below its allocation cap, preserving FIFO order for the rest.
func (m *Machine) popEligible(g GroupID) *VCPU {
	q := m.queues[g]
	for i, v := range q {
		if v.vm.running < v.vm.alloc {
			copy(q[i:], q[i+1:])
			m.queues[g] = q[:len(q)-1]
			return v
		}
	}
	return nil
}

// dispatch places v on core c for one timeslice.
func (m *Machine) dispatch(c *Core, v *VCPU) {
	now := m.loop.Now()
	overhead := m.cfg.DispatchOverheadMin
	if span := m.cfg.DispatchOverheadMax - m.cfg.DispatchOverheadMin; span > 0 {
		overhead += sim.Time(m.rng.Intn(int(span) + 1))
	}
	if v.vm.group == PrimaryGroup {
		m.waits++
		if now-v.readySince+overhead > m.waitThreshold {
			m.over++
		}
	}

	v.core = c
	v.vm.running++
	c.running = v
	m.busy[c.group]++
	c.workStart = now + overhead
	slice := v.remaining
	if slice > m.cfg.SchedPeriod {
		slice = m.cfg.SchedPeriod
	}
	c.sliceWork = slice
	c.sliceEvent = m.loop.After(overhead+slice, c.sliceEnd)
}

// sliceEnd handles the end of a timeslice: work accounting, work
// completion or requeue, pending-move application, and redispatch.
func (m *Machine) sliceEnd(c *Core) {
	v := c.running
	c.sliceEvent = nil
	v.remaining -= c.sliceWork
	v.vm.cpuTime += c.sliceWork
	v.vm.running--
	c.running = nil
	g := c.group
	m.busy[g]--

	if v.remaining <= 0 {
		m.finishWork(v)
	} else if len(m.queues[g]) == 0 && !(c.pending && c.eligible) {
		// No one is waiting and the core stays put: keep running
		// without a wait sample (the hypervisor would not deschedule).
		v.vm.running++
		c.running = v
		m.busy[g]++
		now := m.loop.Now()
		c.workStart = now
		slice := v.remaining
		if slice > m.cfg.SchedPeriod {
			slice = m.cfg.SchedPeriod
		}
		c.sliceWork = slice
		c.sliceEvent = m.loop.After(slice, c.sliceEnd)
		return
	} else {
		v.readySince = m.loop.Now()
		v.core = nil
		m.queues[g] = append(m.queues[g], v)
	}

	// The slice end is a scheduling event: apply an eligible pending
	// move, otherwise redispatch on this core.
	if c.pending && c.eligible {
		m.applyMove(c)
	}
	m.trySchedule(g)
	if c.group != g {
		m.trySchedule(c.group)
	}
}

// finishWork completes v's current item: release the vCPU (possibly
// starting queued guest work) and fire the completion callback.
func (m *Machine) finishWork(v *VCPU) {
	done := v.done
	v.core = nil
	v.remaining = 0
	v.vm.releaseVCPU(v)
	if done != nil {
		done()
	}
}
