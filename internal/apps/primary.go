// Package apps provides the concrete workload models used in the paper's
// evaluation: four latency-critical primary applications (IndexServe,
// Memcached, moses, img-dnn), the square-wave synthetic primary, and three
// batch applications for the ElasticVM (CPUBully, HDInsight, TeraSort).
//
// The real binaries (Bing IndexServe, memcached+mutilate, TailBench) are
// not available in this environment; each model is a calibrated queueing
// substitute whose busy-core process matches the paper's Table 1 (average
// and average-peak busy cores at the paper's offered loads) and whose
// nominal tail latency is in the paper's reported range. See DESIGN.md for
// the substitution rationale.
package apps

import (
	"fmt"
	"strconv"
	"strings"

	"smartharvest/internal/hypervisor"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
	"smartharvest/internal/traces"
	"smartharvest/internal/workload"
)

// PrimarySpec describes one primary application at a given offered load.
type PrimarySpec struct {
	// Name identifies the application ("memcached", "indexserve", ...).
	Name string
	// QPS is the offered load.
	QPS float64
	// Build constructs the server attached to a VM. warmup is the time
	// before which latency samples are discarded.
	Build func(loop *sim.Loop, vm *hypervisor.VM, rng *simrng.Rand, warmup sim.Time) (*workload.Server, error)
}

// Memcached models an in-memory key-value store: very short requests
// (tens of microseconds), sub-millisecond P99, and a very high request
// rate (Facebook-style GET traffic via mutilate).
//
// Calibration for Table 1 at 40 kQPS on a 10-core VM: average busy ≈ 2.3
// cores requires mean service ≈ 57 µs; with Poisson arrivals the
// within-window concurrency maxima then average ≈ 7.7 cores — the
// natural stochastic burstiness of a short-service high-rate server.
func Memcached(qps float64) PrimarySpec {
	return PrimarySpec{
		Name: "memcached",
		QPS:  qps,
		Build: func(loop *sim.Loop, vm *hypervisor.VM, rng *simrng.Rand, warmup sim.Time) (*workload.Server, error) {
			return workload.NewServer(loop, vm, workload.ServerConfig{
				Name:    "memcached",
				Arrival: workload.NewPoisson(rng.Split(), qps),
				Service: workload.NewLogNormalService(rng.Split(), 57*sim.Microsecond, 3.5, 2*sim.Millisecond),
				Warmup:  warmup,
			}), nil
		},
	}
}

// MemcachedSwinging models a key-value store whose offered load swings
// sharply and aperiodically between a long calm phase and a short,
// saturating surge (a Markov-modulated Poisson process) — the "high
// swings in load" the paper's long-term safeguard exists for (§3.4,
// Figure 11). Transitions arrive every few hundred milliseconds: after
// each calm window the learner's model shrinks the assignment again, so
// every surge onset lands on a shrunken assignment and must claw cores
// back under full load. qps is the long-run average rate.
func MemcachedSwinging(qps float64) PrimarySpec {
	return PrimarySpec{
		Name: "memcached-swing",
		QPS:  qps,
		Build: func(loop *sim.Loop, vm *hypervisor.VM, rng *simrng.Rand, warmup sim.Time) (*workload.Server, error) {
			// Raw calm/surge multipliers and dwells, normalized so the
			// long-run average stays at qps. The surge is sized to
			// demand ~7-8 cores (hard to serve from a shrunken
			// assignment, but below the VM's own saturation point).
			const (
				calmX, surgeX = 0.2, 3.2
				calmDwell     = 400 * sim.Millisecond
				surgeDwell    = 250 * sim.Millisecond
			)
			scale := (calmX*calmDwell.Seconds() + surgeX*surgeDwell.Seconds()) /
				(calmDwell + surgeDwell).Seconds()
			return workload.NewServer(loop, vm, workload.ServerConfig{
				Name: "memcached-swing",
				Arrival: workload.NewMMPP2(rng.Split(), calmX/scale*qps, surgeX/scale*qps,
					calmDwell, surgeDwell),
				Service: workload.NewLogNormalService(rng.Split(), 57*sim.Microsecond, 4.0, 2*sim.Millisecond),
				Warmup:  warmup,
			}), nil
		},
	}
}

// IndexServe models a web-search index-serving node: each query fans out
// to several index partitions served in parallel, giving millisecond-scale
// latencies and sharp multi-core demand spikes. Load comes from a
// synthetic bursty trace standing in for the paper's Bing query traces,
// streamed: 30 s of it, looped, drawn as the run goes.
//
// Calibration for Table 1 at 500 QPS: avg busy ≈ 1.3 cores → per-query
// CPU ≈ 2.6 ms spread over a fanout of 3; avg peak ≈ 7.
func IndexServe(qps float64) PrimarySpec {
	return PrimarySpec{
		Name: "indexserve",
		QPS:  qps,
		Build: func(loop *sim.Loop, vm *hypervisor.VM, rng *simrng.Rand, warmup sim.Time) (*workload.Server, error) {
			cfg := traces.DefaultConfig(qps, 30*sim.Second)
			cfg.Seed = rng.Uint64()
			trace, err := traces.NewStream(cfg)
			if err != nil {
				return nil, fmt.Errorf("apps: indexserve trace: %w", err)
			}
			return workload.NewServer(loop, vm, workload.ServerConfig{
				Name:    "indexserve",
				Arrival: trace,
				Service: workload.NewLogNormalService(rng.Split(), 870*sim.Microsecond, 3, 20*sim.Millisecond),
				Fanout:  workload.FixedFanout(3),
				Stagger: workload.NewExpService(rng.Split(), 150*sim.Microsecond),
				Warmup:  warmup,
			}), nil
		},
	}
}

// Moses models the TailBench statistical machine-translation service:
// mostly fast sentence translations with a rare, very slow request, giving
// the hundreds-of-milliseconds P99 of the paper's Figure 5.
//
// Calibration for Table 1 at 400 QPS: avg busy ≈ 1.5 cores → mean service
// ≈ 3.75 ms; avg peak ≈ 5.2 from slow-request pile-ups.
func Moses(qps float64) PrimarySpec {
	return PrimarySpec{
		Name: "moses",
		QPS:  qps,
		Build: func(loop *sim.Loop, vm *hypervisor.VM, rng *simrng.Rand, warmup sim.Time) (*workload.Server, error) {
			fast := workload.NewLogNormalService(rng.Split(), 1200*sim.Microsecond, 3, 30*sim.Millisecond)
			slow := workload.NewLogNormalService(rng.Split(), 150*sim.Millisecond, 2, 600*sim.Millisecond)
			return workload.NewServer(loop, vm, workload.ServerConfig{
				Name:    "moses",
				Arrival: workload.NewBatchPoisson(rng.Split(), qps, 2),
				Service: workload.NewBimodal(rng.Split(), fast, slow, 0.02),
				Warmup:  warmup,
			}), nil
		},
	}
}

// ImgDNN models the TailBench handwriting-recognition service: moderate,
// fairly uniform per-request inference cost at high request rate, with a
// heavier tail than Memcached.
//
// Calibration for Table 1 at 2000 QPS: avg busy ≈ 1.7 cores → mean
// service ≈ 850 µs; avg peak ≈ 6.9 from small batched arrivals.
func ImgDNN(qps float64) PrimarySpec {
	return PrimarySpec{
		Name: "img-dnn",
		QPS:  qps,
		Build: func(loop *sim.Loop, vm *hypervisor.VM, rng *simrng.Rand, warmup sim.Time) (*workload.Server, error) {
			return workload.NewServer(loop, vm, workload.ServerConfig{
				Name:    "img-dnn",
				Arrival: workload.NewBatchPoisson(rng.Split(), qps, 1.5),
				Service: workload.NewLogNormalService(rng.Split(), 850*sim.Microsecond, 8, 40*sim.Millisecond),
				Warmup:  warmup,
			}), nil
		},
	}
}

// SquareWave models Figure 7's synthetic primary: a multi-threaded server
// with fixed per-request processing time whose offered concurrency
// alternates between a high and a low level with a fixed period.
func SquareWave(highConcurrency, lowConcurrency int, halfPeriod sim.Time) PrimarySpec {
	if highConcurrency < 1 || lowConcurrency < 1 || halfPeriod <= 0 {
		panic("apps: bad SquareWave parameters")
	}
	const service = 5 * sim.Millisecond
	highQPS := float64(highConcurrency) / service.Seconds()
	lowQPS := float64(lowConcurrency) / service.Seconds()
	return PrimarySpec{
		Name: "squarewave",
		QPS:  (highQPS + lowQPS) / 2,
		Build: func(loop *sim.Loop, vm *hypervisor.VM, rng *simrng.Rand, warmup sim.Time) (*workload.Server, error) {
			return workload.NewServer(loop, vm, workload.ServerConfig{
				Name:    "squarewave",
				Arrival: workload.NewSquareWave(highQPS, lowQPS, halfPeriod),
				Service: workload.Deterministic(service),
				Warmup:  warmup,
			}), nil
		},
	}
}

// primaries is the -primary table of cmd/smartharvest: each workload by
// name with the load it runs at when a spec gives none (its Table 1
// load), or no load for squarewave, whose shape fixes its rate.
var primaries = []struct {
	name  string
	qps   float64
	build func(qps float64) PrimarySpec
}{
	{"memcached", 40000, Memcached},
	{"memcached-swing", 60000, MemcachedSwinging},
	{"indexserve", 500, IndexServe},
	{"moses", 400, Moses},
	{"img-dnn", 2000, ImgDNN},
	{"squarewave", 0, func(float64) PrimarySpec { return SquareWave(8, 1, 500*sim.Millisecond) }},
}

// minQPS and maxQPS bound the load ParsePrimary accepts. maxQPS is one
// arrival per nanosecond, the clock's tick, on average: above it arrivals
// pile up on the same instant and a run stops advancing in simulated
// time. minQPS is a mean gap of 1e15 ns: the largest exponential draw
// (~36.7 means), doubled by a batched arrival and stretched ~6.7x by an
// MMPP's calm phase, stays near 5e17 ns, well inside the clock's int64
// range, where a far smaller load's gap converts to a negative time.
const (
	minQPS = 1e-6
	maxQPS = 1e9
)

// ParsePrimary parses a -primary spec, "name[:qps]". The load, when
// given, must be a finite rate in [minQPS, maxQPS], and squarewave takes
// none.
func ParsePrimary(spec string) (PrimarySpec, error) {
	name, arg, _ := strings.Cut(spec, ":")
	for _, p := range primaries {
		if p.name != name {
			continue
		}
		qps := p.qps
		if arg != "" {
			if qps == 0 {
				return PrimarySpec{}, fmt.Errorf("apps: primary %s takes no load (got %q)", name, arg)
			}
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil || !(v >= minQPS && v <= maxQPS) {
				return PrimarySpec{}, fmt.Errorf("apps: bad load %q for %s: want a rate in [%g, %g] requests/s", arg, name, minQPS, maxQPS)
			}
			qps = v
		}
		return p.build(qps), nil
	}
	names := make([]string, len(primaries))
	for i, p := range primaries {
		names[i] = p.name
	}
	return PrimarySpec{}, fmt.Errorf("apps: unknown primary %q (want %s)", name, strings.Join(names, ", "))
}

// MemcachedVaryingLoad reproduces Table 2's load schedule: each phase runs
// for phaseLen at the given QPS; the last phase repeats until the end.
func MemcachedVaryingLoad(phaseQPS []float64, phaseLen sim.Time) PrimarySpec {
	if len(phaseQPS) == 0 || phaseLen <= 0 {
		panic("apps: bad varying-load parameters")
	}
	avg := 0.0
	for _, q := range phaseQPS {
		avg += q
	}
	avg /= float64(len(phaseQPS))
	return PrimarySpec{
		Name: "memcached-varying",
		QPS:  avg,
		Build: func(loop *sim.Loop, vm *hypervisor.VM, rng *simrng.Rand, warmup sim.Time) (*workload.Server, error) {
			phases := make([]workload.Phase, 0, len(phaseQPS))
			for _, q := range phaseQPS {
				phases = append(phases, workload.Phase{
					Duration: phaseLen,
					Arrival:  workload.NewPoisson(rng.Split(), q),
				})
			}
			return workload.NewServer(loop, vm, workload.ServerConfig{
				Name:    "memcached-varying",
				Arrival: workload.NewPhased(phases...),
				Service: workload.NewLogNormalService(rng.Split(), 57*sim.Microsecond, 4.0, 2*sim.Millisecond),
				Warmup:  warmup,
			}), nil
		},
	}
}

// WithPhaseBoundaries wraps a PrimarySpec so the built server also
// records per-phase latency histograms (see
// workload.Server.ConfigurePhases); used by the varying-load
// experiments (paper Table 2).
func WithPhaseBoundaries(spec PrimarySpec, boundaries []sim.Time) PrimarySpec {
	inner := spec.Build
	spec.Build = func(loop *sim.Loop, vm *hypervisor.VM, rng *simrng.Rand, warmup sim.Time) (*workload.Server, error) {
		srv, err := inner(loop, vm, rng, warmup)
		if err != nil {
			return nil, err
		}
		srv.ConfigurePhases(boundaries)
		return srv, nil
	}
	return spec
}
