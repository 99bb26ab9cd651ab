package apps

import (
	"fmt"

	"smartharvest/internal/hypervisor"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
	"smartharvest/internal/workload"
)

// charHorizon is the length of the precomputed shared burst schedule.
// A longer run loops it: each VM replays its joined epochs again every
// charHorizon, so correlated bursts continue past it.
const charHorizon = 120 * sim.Second

// Characterized returns a primary described by workload-characterization
// knobs rather than a named application: class picks the preset shape
// (flat / periodic / bursty / mixed), qps the offered load. The service
// distribution is the memcached calibration (57 µs lognormal), so what
// varies across classes is purely the arrival structure the predictor
// must learn. shared carries the server-wide burst epochs for cross-VM
// correlation; it may be nil only when the class has no correlated
// bursts (flat).
func Characterized(class workload.Class, qps float64, shared *workload.BurstSchedule) PrimarySpec {
	knobs := workload.KnobsFor(class, qps)
	name := "char-" + class.String()
	return PrimarySpec{
		Name: name,
		QPS:  qps,
		Build: func(loop *sim.Loop, vm *hypervisor.VM, rng *simrng.Rand, warmup sim.Time) (*workload.Server, error) {
			if knobs.Correlation > 0 && shared == nil {
				return nil, fmt.Errorf("apps: class %v needs a shared BurstSchedule", class)
			}
			return workload.NewServer(loop, vm, workload.ServerConfig{
				Name:    name,
				Arrival: workload.NewCharacterized(rng.Split(), knobs, shared),
				Service: workload.NewLogNormalService(rng.Split(), 57*sim.Microsecond, 3.5, 2*sim.Millisecond),
				Warmup:  warmup,
			}), nil
		},
	}
}

// CharacterizedMix returns n primaries of the same class sharing one
// burst schedule (derived from seed), so the class's Correlation knob
// shows up as cross-VM burst alignment on the server. The schedule is
// deterministic in seed alone — scenario RNG streams are untouched.
func CharacterizedMix(seed uint64, n int, class workload.Class, qps float64) []PrimarySpec {
	if n < 1 {
		panic(fmt.Sprintf("apps: CharacterizedMix with n=%d", n))
	}
	knobs := workload.KnobsFor(class, qps)
	var shared *workload.BurstSchedule
	if knobs.Correlation > 0 {
		shared = workload.NewBurstSchedule(seed, knobs.BurstRate, charHorizon)
	}
	specs := make([]PrimarySpec, n)
	for i := range specs {
		specs[i] = Characterized(class, qps, shared)
	}
	return specs
}
