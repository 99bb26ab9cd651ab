// Package hypervisor simulates the host-side machinery SmartHarvest runs
// against: a machine with physical cores, VMs with virtual CPUs, two
// non-overlapping cpugroups (primary and elastic), a non-preemptive
// scheduler with a fixed scheduling period, per-dispatch vCPU wait-time
// accounting, and two core-reassignment mechanisms with realistic latency:
//
//   - CpuGroups: the stock Hyper-V path. A resize issues four hypercalls
//     (~200 µs each). Because the hypervisor is non-preemptive, a core that
//     is running a vCPU leaves its group only at the end of its current
//     timeslice (worst case one scheduling period, 10 ms), and an idle core
//     moves at the next idle-rebalance scan (5 ms period). This reproduces
//     the grow ≤5 ms / shrink ≤10 ms CDFs of the paper's Figure 14a.
//
//   - IPI: the paper's modified path. A single merge hypercall plus an
//     interprocessor interrupt preempts the affected cores directly; the
//     whole effect lands in ~30–130 µs (Figure 14b).
//
// The package is driven entirely by the discrete-event loop in
// internal/sim; nothing here touches the wall clock.
package hypervisor

import (
	"fmt"

	"smartharvest/internal/grammar"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// Mechanism selects how core reassignments take effect.
type Mechanism int

const (
	// CpuGroups models the unmodified hypervisor: multiple hypercalls and
	// non-preemptive, scheduling-event-delayed effects.
	CpuGroups Mechanism = iota
	// IPI models the paper's merge-call + interprocessor-interrupt path:
	// one hypercall and near-immediate preemptive effects.
	IPI
)

// MechanismNames is Mechanism's name table.
var MechanismNames = grammar.Enum[Mechanism]{Pkg: "hypervisor", What: "mechanism",
	Names: []string{"cpugroups", "ipis"}}

func (m Mechanism) String() string { return MechanismNames.String(m) }

// ParseMechanism is the inverse of String.
func ParseMechanism(s string) (Mechanism, error) { return MechanismNames.Parse(s) }

// MarshalText implements encoding.TextMarshaler.
func (m Mechanism) MarshalText() ([]byte, error) { return MechanismNames.MarshalText(m) }

// UnmarshalText implements encoding.TextUnmarshaler.
func (m *Mechanism) UnmarshalText(text []byte) error { return MechanismNames.UnmarshalText(m, text) }

// Config describes the simulated machine. The zero value is not useful;
// start from DefaultConfig.
type Config struct {
	// TotalCores is the number of physical cores in the harvesting pool
	// (primary allocations plus the ElasticVM minimum). The agent's own
	// core (minroot) is outside the pool and not modeled.
	TotalCores int

	// Mechanism selects the reassignment path.
	Mechanism Mechanism

	// SchedPeriod is the hypervisor scheduling period: the timeslice
	// length, and therefore the worst-case delay before a non-preemptive
	// group change affects a running core.
	SchedPeriod sim.Time

	// IdleRebalancePeriod is how often the hypervisor's idle-processor
	// scan applies pending group changes to idle cores (CpuGroups only).
	IdleRebalancePeriod sim.Time

	// HypercallLatency is the cost of a single hypercall.
	HypercallLatency sim.Time

	// CpuGroupsHypercalls is how many hypercalls one resize needs on the
	// stock path (detach+attach for each of the two groups).
	CpuGroupsHypercalls int

	// IPIEffectMean and IPIEffectP99 parameterize the log-normal delay
	// from merge-call issue to the change being visible.
	IPIEffectMean sim.Time
	IPIEffectP99  sim.Time

	// DispatchOverheadMin/Max bound the uniform per-dispatch scheduling
	// overhead added to every vCPU wait. This gives the unloaded system
	// its baseline "P99 wait below ~6 µs" behaviour.
	DispatchOverheadMin sim.Time
	DispatchOverheadMax sim.Time

	// Seed drives all stochastic latencies inside the hypervisor.
	Seed uint64

	// Observer receives a Resize event for every primary-group resize
	// issued through SetPrimaryCores. Nil disables observation.
	Observer obs.Observer

	// Faults, when non-nil, is consulted on every accepted non-no-op
	// SetPrimaryCores request and may fail it transiently or add issue
	// latency. Nil (the default) keeps hypercalls perfect.
	Faults ResizeFaults
}

// DefaultConfig returns the configuration used throughout the paper's
// evaluation, for a pool of totalCores cores.
func DefaultConfig(totalCores int) Config {
	return Config{
		TotalCores:          totalCores,
		Mechanism:           CpuGroups,
		SchedPeriod:         10 * sim.Millisecond,
		IdleRebalancePeriod: 5 * sim.Millisecond,
		HypercallLatency:    200 * sim.Microsecond,
		CpuGroupsHypercalls: 4,
		IPIEffectMean:       60 * sim.Microsecond,
		IPIEffectP99:        130 * sim.Microsecond,
		DispatchOverheadMin: 1 * sim.Microsecond,
		DispatchOverheadMax: 6 * sim.Microsecond,
		Seed:                1,
	}
}

func (c *Config) validate() error {
	if c.TotalCores < 1 {
		return fmt.Errorf("hypervisor: TotalCores %d must be at least 1", c.TotalCores)
	}
	if c.SchedPeriod <= 0 || c.IdleRebalancePeriod <= 0 {
		return fmt.Errorf("hypervisor: scheduling periods must be positive")
	}
	if c.HypercallLatency < 0 || c.CpuGroupsHypercalls < 1 {
		return fmt.Errorf("hypervisor: invalid hypercall parameters")
	}
	if c.DispatchOverheadMax < c.DispatchOverheadMin || c.DispatchOverheadMin < 0 {
		return fmt.Errorf("hypervisor: invalid dispatch overhead bounds")
	}
	return nil
}
