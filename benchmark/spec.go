package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"
)

// metricDef is one row of BENCHMARK.json's metric lists. bound is set for
// end-to-end metrics only.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the simulator sees. Every workload reports every
// one of them, and none can be zero. A bound is at least three times the
// widest spread the metric showed over ten seeds on any workload (README.md
// has the table), since the driver holds different seeds against it; on one
// seed the simulated ones repeat exactly and any difference is a change of
// model. setup_s is the fastest of five cold set-ups in processes of their
// own (start-up, scenario list, one smoke-scale pass), so that work a later
// change moves into start-up or first use shows whatever the timed passes say.
var endToEnd = []metricDef{
	{"sim_s_per_wall_s", "sim-s/wall-s", "higher", 0.25},
	{"allocs_per_sim_s", "1/sim-s", "lower", 0.09},
	{"alloc_kb_per_sim_s", "KiB/sim-s", "lower", 0.09},
	{"peak_rss_mb", "MiB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"harvested_cores_avg", "cores", "higher", 0.09},
	{"goodput_core_s_per_sim_s", "core-s/sim-s", "higher", 0.09},
	{"p99_ratio_mean", "ratio", "lower", 0.07},
}

// perLayer is reported by the traced run. The first block is counted or timed
// around calls the workload itself makes; the second is the isolated probes,
// which read the same on every workload.
var perLayer = []metricDef{
	{name: "core.polls_per_sim_s", unit: "1/sim-s", better: "lower"},
	{name: "core.windows_per_sim_s", unit: "1/sim-s", better: "lower"},
	{name: "core.resizes_per_sim_s", unit: "1/sim-s", better: "lower"},
	{name: "core.safeguards_per_sim_s", unit: "1/sim-s", better: "lower"},
	{name: "core.qos_trips", unit: "count", better: "lower"},
	{name: "core.resize_retries_per_sim_s", unit: "1/sim-s", better: "lower"},
	{name: "core.degradations", unit: "count", better: "lower"},
	{name: "core.controller_ns_per_window", unit: "ns", better: "lower"},
	{name: "apps.requests_per_sim_s", unit: "1/sim-s", better: "higher"},
	{name: "apps.p99_ratio_max", unit: "ratio", better: "lower"},
	{name: "obs.events_per_sim_s", unit: "1/sim-s", better: "lower"},
	{name: "obs.jsonl_bytes_per_sim_s", unit: "B/sim-s", better: "lower"},
	{name: "obs.overhead_frac", unit: "ratio", better: "lower"},
	{name: "check.overhead_frac", unit: "ratio", better: "lower"},
	{name: "check.violations", unit: "count", better: "lower"},
	{name: "faults.injected_per_sim_s", unit: "1/sim-s", better: "lower"},
	{name: "harness.scenario_wall_ms_p50", unit: "ms", better: "lower"},
	{name: "harness.scenario_wall_ms_max", unit: "ms", better: "lower"},
	{name: "cluster.newfleet_ms_per_server", unit: "ms", better: "lower"},
	{name: "cluster.run_ms_per_server_sim_s", unit: "ms/sim-s", better: "lower"},
	{name: "cluster.finish_ms", unit: "ms", better: "lower"},
	{name: "cluster.newfleet_wall_frac", unit: "ratio", better: "lower"},
	{name: "sched.overhead_frac", unit: "ratio", better: "lower"},
	{name: "sched.jobs_submitted", unit: "count", better: "higher"},
	{name: "sched.evictions", unit: "count", better: "lower"},
	{name: "sched.requeues", unit: "count", better: "lower"},
	{name: "sched.placement_retries", unit: "count", better: "lower"},
	{name: "sched.quarantines", unit: "count", better: "lower"},
	{name: "sched.slo_attainment", unit: "ratio", better: "higher"},
	{name: "market.revenue", unit: "count", better: "higher"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower"},
	{name: "ledger.coverage_frac", unit: "ratio", better: "higher"},

	{name: "sim.schedule_fire_ns", unit: "ns", better: "lower"},
	{name: "sim.schedule_fire_depth4k_ns", unit: "ns", better: "lower"},
	{name: "sim.cancel_ns", unit: "ns", better: "lower"},
	{name: "sim.ticker_ns", unit: "ns", better: "lower"},
	{name: "simrng.draw_ns", unit: "ns", better: "lower"},
	{name: "traces.generate_ns_per_arrival", unit: "ns", better: "lower"},
	{name: "traces.generate_allocs_per_arrival", unit: "count", better: "lower"},
	{name: "workload.chargen_ns_per_arrival", unit: "ns", better: "lower"},
	{name: "learner.features_ns", unit: "ns", better: "lower"},
	{name: "learner.csoaa_predict_ns", unit: "ns", better: "lower"},
	{name: "learner.csoaa_update_ns", unit: "ns", better: "lower"},
	{name: "learner.ensemble_window_ns", unit: "ns", better: "lower"},
	{name: "core.agent_ns_per_poll", unit: "ns", better: "lower"},
	{name: "core.agent_bytes_per_poll", unit: "B", better: "lower"},
	{name: "core.agent_window_end_ns", unit: "ns", better: "lower"},
	{name: "hypervisor.ns_per_request", unit: "ns", better: "lower"},
	{name: "hypervisor.allocs_per_request", unit: "count", better: "lower"},
	{name: "hypervisor.busy_cores_ns", unit: "ns", better: "lower"},
	{name: "hypervisor.resize_ns", unit: "ns", better: "lower"},
	{name: "metrics.histogram_record_ns", unit: "ns", better: "lower"},
	{name: "metrics.histogram_quantile_ns", unit: "ns", better: "lower"},
	{name: "obs.nop_ns_per_event", unit: "ns", better: "lower"},
	{name: "obs.ring_ns_per_event", unit: "ns", better: "lower"},
	{name: "obs.metrics_ns_per_event", unit: "ns", better: "lower"},
	{name: "obs.jsonl_ns_per_event", unit: "ns", better: "lower"},
	{name: "check.checker_ns_per_event", unit: "ns", better: "lower"},
	{name: "check.jobchecker_ns_per_event", unit: "ns", better: "lower"},
	{name: "market.admission_ns", unit: "ns", better: "lower"},
	{name: "market.refill_drain_ns", unit: "ns", better: "lower"},
	{name: "sched.benchconfig_ms", unit: "ms", better: "lower"},
}

// runSeconds is BENCHMARK.json's run_seconds: how long the timed repeats of
// one run go on for.
const runSeconds = 26

// specFile mirrors BENCHMARK.json.
type specFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// registrySpec is the BENCHMARK.json the program's registries stand for;
// -spec prints it and the drift test compares the file with it.
func registrySpec() specFile {
	s := specFile{
		Command:    []string{"go", "run", "-C", "benchmark", "."},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		bound := m.bound
		s.EndToEnd = append(s.EndToEnd, specMetric{m.name, m.unit, m.better, &bound})
	}
	for _, m := range perLayer {
		s.PerLayer = append(s.PerLayer, specMetric{m.name, m.unit, m.better, nil})
	}
	return s
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// parent of the directory `go run -C benchmark` and `go test` run in, and
// returns it with the hash that ties result files to it.
func loadSpec() (specFile, string, error) {
	var s specFile
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		return s, "", err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, "", fmt.Errorf("BENCHMARK.json: %w", err)
	}
	sum := sha256.Sum256(data)
	return s, hex.EncodeToString(sum[:8]), nil
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted is the output check: got must hold exactly the metrics want
// lists, each well named, finite, and with the declared unit.
func checkEmitted(want []metricDef, got map[string]sample) error {
	for _, m := range want {
		s, ok := got[m.name]
		switch {
		case !metricName.MatchString(m.name):
			return fmt.Errorf("metric name %q is malformed", m.name)
		case !ok:
			return fmt.Errorf("metric %s was not measured", m.name)
		case s.Unit != m.unit:
			return fmt.Errorf("metric %s has unit %q, want %q", m.name, s.Unit, m.unit)
		case math.IsNaN(s.Value) || math.IsInf(s.Value, 0):
			return fmt.Errorf("metric %s is not finite: %v", m.name, s.Value)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics measured, %d declared", len(got), len(want))
	}
	return nil
}
