package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// smokeOptions is one untimed-budget smoke run: no warm-up pass, one repeat.
func smokeOptions(trace bool) options {
	return options{seed: 1, sc: smokeScale, repeats: 1, trace: trace}
}

// TestSpecMatchesRegistries is the drift test: BENCHMARK.json's workload and
// metric lists are the program's registries, which is also what ties the
// bounds --compare reads to the ones the registry documents.
func TestSpecMatchesRegistries(t *testing.T) {
	got, _, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if want := registrySpec(); !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("BENCHMARK.json differs from the registries (regenerate it with -spec)\n file: %s\n want: %s", g, w)
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q is malformed", m.name)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("metric %s: better is %q", m.name, m.better)
		}
	}
	for _, m := range endToEnd {
		if m.bound <= 0 || m.bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.name, m.bound)
		}
	}
}

// TestSmokeRuns runs every workload twice on one seed at the smoke scale and
// checks what an untraced run promises: every end-to-end metric emitted,
// finite and non-zero, no failed scenario run, equal digests on equal seeds,
// another digest on another seed, and the Controller-nil trap avoided.
func TestSmokeRuns(t *testing.T) {
	for _, w := range workloads {
		var out bytes.Buffer
		first, err := measure(w, smokeOptions(false), &out)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, m := range endToEnd {
			if s := first.Metrics[m.name]; s.Value == 0 {
				t.Errorf("%s: %s is zero", w.name, m.name)
			}
			if !strings.Contains(out.String(), m.name) || !strings.Contains(out.String(), m.unit) {
				t.Errorf("%s: output lacks %s in %s", w.name, m.name, m.unit)
			}
		}
		if first.Failed != 0 || first.Attempted == 0 {
			t.Errorf("%s: %d of %d scenario runs failed: %v", w.name, first.Failed, first.Attempted, first.Failures)
		}
		again, err := measure(w, smokeOptions(false), &out)
		if err != nil {
			t.Fatal(err)
		}
		if again.SimDigest != first.SimDigest {
			t.Errorf("%s: two runs on one seed have digests %s and %s", w.name, first.SimDigest, again.SimDigest)
		}
		other := smokeOptions(false)
		other.seed = 2
		moved, err := measure(w, other, &out)
		if err != nil {
			t.Fatal(err)
		}
		if moved.SimDigest == first.SimDigest {
			t.Errorf("%s: the seed does not reach the simulated statistics", w.name)
		}
	}
}

// TestHarvestingScenariosHarvest asserts against the Controller-nil trap: a
// scenario with ms-scale primaries and the forced long-term safeguard sits
// in its lock-out and harvests about 0.1 cores.
func TestHarvestingScenariosHarvest(t *testing.T) {
	for _, name := range []string{"single-poll-bound", "observed-chaos"} {
		w, _ := findWorkload(name)
		ops := w.ops(smokeScale)
		p := runPass(ops, 1, nil, nil)
		if len(p.failures) > 0 {
			t.Fatalf("%s: %v", name, p.failures)
		}
		for i, o := range ops {
			if o.baseline >= 0 && !strings.HasPrefix(o.name, "memcached") && p.results[i].harvested <= 0.5 {
				t.Errorf("%s/%s harvests %.2f cores: is the long-term safeguard forced on?",
					name, o.name, p.results[i].harvested)
			}
		}
	}
}

// TestTracedSmokeRun checks the traced run on the workload that has every
// kind of instrumentation: all per-layer metrics emitted and finite, the
// spans written, and the simulated statistics untouched by tracing.
func TestTracedSmokeRun(t *testing.T) {
	w, _ := findWorkload("observed-chaos")
	var out bytes.Buffer
	rec, err := measure(w, smokeOptions(true), &out)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 0 {
		t.Errorf("%d scenario runs failed: %v", rec.Failed, rec.Failures)
	}
	for _, name := range []string{"core.polls_per_sim_s", "obs.events_per_sim_s", "obs.jsonl_bytes_per_sim_s",
		"core.controller_ns_per_window", "check.checker_ns_per_event", "check.jobchecker_ns_per_event"} {
		if rec.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want it positive", name, rec.Metrics[name].Value)
		}
	}
	data, err := os.ReadFile(filepath.Join("out", "trace-observed-chaos.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	scenarios := 0
	for _, s := range trace.Spans {
		if s.End < s.Start || s.Parent >= len(trace.Spans) {
			t.Errorf("malformed span %+v", s)
		}
		if s.Name == "scenario" {
			scenarios++
		}
	}
	if want := tracedRepeats * len(w.ops(smokeScale)); scenarios != want {
		t.Errorf("%d scenario spans, want %d", scenarios, want)
	}
}

// TestNilObserverWorkloadsStayUnobserved: the traced run counts polls through
// the controller wrapper, not an observer, so the two nil-observer workloads
// deliver no events even when traced.
func TestNilObserverWorkloadsStayUnobserved(t *testing.T) {
	w, _ := findWorkload("single-poll-bound")
	p := runPass(w.ops(smokeScale), 1, &tracer{workload: w.name}, nil)
	if p.counts[cEvents] != 0 || p.counts[cPolls] == 0 {
		t.Errorf("events %v polls %v, want no events and some polls", p.counts[cEvents], p.counts[cPolls])
	}
}

func writeRun(t *testing.T, name string, scaleSpeed float64) string {
	t.Helper()
	_, hash, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	rec := record{Workload: "single-poll-bound", Seed: 1, Scale: "full", Seconds: runSeconds,
		GoVersion: "go", GOMAXPROCS: 2, SpecHash: hash, Repeats: 7, Attempted: 72, SimDigest: "d",
		Metrics: map[string]sample{}}
	for _, m := range endToEnd {
		rec.Metrics[m.name] = newSample(m.unit, 100, 101, 102)
	}
	rec.Metrics["sim_s_per_wall_s"] = newSample("sim-s/wall-s", 400*scaleSpeed, 404*scaleSpeed, 408*scaleSpeed)
	path := filepath.Join(t.TempDir(), name)
	if err := writeRecords(path, []record{rec}); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	base := writeRun(t, "a.json", 1)
	var out bytes.Buffer
	if worse, err := compareFiles(base, base, &out); err != nil || worse != 0 {
		t.Errorf("identical files: %d worse, err %v\n%s", worse, err, out.String())
	}
	// sim_s_per_wall_s has the widest bound, 25 %; a third slower is beyond it.
	slow := writeRun(t, "b.json", 0.66)
	out.Reset()
	worse, err := compareFiles(base, slow, &out)
	if err != nil || worse != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a run a third slower: %d worse, err %v\n%s", worse, err, out.String())
	}
	if worse, err := compareFiles(slow, base, &out); err != nil || worse != 0 {
		t.Errorf("a faster run: %d worse, err %v", worse, err)
	}

	// Runs made another way are refused.
	recs, err := readRecords(base)
	if err != nil {
		t.Fatal(err)
	}
	recs[0].Seed = 2
	other := filepath.Join(t.TempDir(), "c.json")
	if err := writeRecords(other, recs); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(base, other, &out); err == nil {
		t.Error("files with different seeds were compared")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "allocs_per_sim_s", better: "lower", bound: 0.02}
	higher := metricDef{name: "sim_s_per_wall_s", better: "higher", bound: 0.10}
	for _, c := range []struct {
		m    metricDef
		a, b sample
		want verdict
	}{
		{lower, newSample("", 100), newSample("", 101.9), verdictOK},
		{lower, newSample("", 100), newSample("", 103), verdictWorse},
		{lower, newSample("", 100), newSample("", 50), verdictOK},
		// A synthetic 20 % slowdown with tight repeats is worse ...
		{higher, newSample("", 99, 100, 101), newSample("", 79, 80, 81), verdictWorse},
		// ... and unresolved when the repeats spread wider than the bound and overlap.
		{higher, newSample("", 70, 100, 120), newSample("", 65, 80, 110), verdictUnresolved},
	} {
		if got := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.name, c.a.Values, c.b.Values, got, c.want)
		}
	}
}

func TestMedianAndBestWall(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	passes := []pass{{opWallMs: []float64{10, 30}}, {opWallMs: []float64{20, 20}}}
	if got := bestWallS(passes); math.Abs(got-0.030) > 1e-12 {
		t.Errorf("bestWallS = %v, want 0.030", got)
	}
}
