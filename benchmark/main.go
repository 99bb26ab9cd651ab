// Command shbench is the SmartHarvest simulator's benchmark: four pinned
// workloads, end-to-end metrics with regression bounds, and a per-layer
// ledger from a separate traced run. BENCHMARK.json at the repository root is
// its contract and README.md its manual.
//
//	go run -C benchmark . --workload single-poll-bound --seed 1 --seconds 20 --trace 0
//	go run -C benchmark . --out out/a.json          # every workload, one process each
//	go run -C benchmark . --compare out/a.json out/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// record is one run of one workload, as written by --out and read by
// --compare.
type record struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Scale      string            `json:"scale"`
	Seconds    int               `json:"seconds"`
	Trace      bool              `json:"trace"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	SpecHash   string            `json:"spec_hash"`
	Repeats    int               `json:"repeats"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Failures   []string          `json:"failures,omitempty"`
	SimDigest  string            `json:"sim_digest"`
	Metrics    map[string]sample `json:"metrics"`
}

// options is one run's settings.
type options struct {
	seed    uint64
	seconds int
	trace   bool
	sc      scale
	// repeats is the least number of timed repeats; more follow until
	// seconds have passed.
	repeats int
	// warmup runs the scenario list once, untimed, before the repeats.
	warmup bool
	// coldSetups is how many fresh processes setup_s is measured in; 0
	// (the tests, which have no binary to re-execute) times this process.
	coldSetups int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run, or all: each in a process of its own")
	seed := fs.Uint64("seed", 1, "workload seed; the scenario pair i runs on seed+i")
	seconds := fs.Int("seconds", runSeconds, "how long the timed repeats go on for")
	trace := fs.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
	smoke := fs.Bool("smoke", false, "1 sim-s scenarios and two repeats, for tests")
	out := fs.String("out", "", "also write the run's records to this JSON file")
	compare := fs.Bool("compare", false, "compare two --out files: shbench --compare A.json B.json")
	printSpec := fs.Bool("spec", false, "print the BENCHMARK.json the program's registries stand for")
	setupProbe := fs.Bool("setup-probe", false, "internal: set the workload up cold, print the seconds it took, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "shbench:", err)
		return 1
	}
	if *printSpec {
		data, err := json.MarshalIndent(registrySpec(), "", "  ")
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", data)
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(errors.New("--compare takes two result files"))
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if worse > 0 {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		return fail(fmt.Errorf("--trace is 0 or 1, not %d", *trace))
	}
	opt := options{seed: *seed, seconds: *seconds, trace: *trace == 1, sc: fullScale, repeats: 3, warmup: true, coldSetups: 5}
	if *smoke {
		opt.sc, opt.seconds, opt.repeats = smokeScale, 0, 2
	}

	if *workload == "all" {
		ok, err := runAll(opt, *smoke, *out, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*workload)
	if !ok {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *setupProbe {
		if p := runPass(w.ops(smokeScale), opt.seed, nil, nil); len(p.failures) > 0 {
			return fail(fmt.Errorf("set-up pass: %v", p.failures))
		}
		fmt.Fprintln(stdout, time.Since(processStart).Seconds())
		return 0
	}
	rec, err := measure(w, opt, stdout)
	if err != nil {
		return fail(err)
	}
	if *out != "" {
		if err := writeRecords(*out, []record{*rec}); err != nil {
			return fail(err)
		}
	}
	// The result line is last on standard output.
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, map[string]value{}}
	for name, s := range rec.Metrics {
		result.Metrics[name] = value{s.Value, s.Unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// measure runs one workload in this process and prints its metrics.
func measure(w workloadDef, opt options, stdout io.Writer) (*record, error) {
	_, specHash, err := loadSpec()
	if err != nil {
		return nil, err
	}
	rec := &record{
		Workload: w.name, Seed: opt.seed, Scale: opt.sc.name, Seconds: opt.seconds, Trace: opt.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), SpecHash: specHash,
	}
	want := endToEnd
	if opt.trace {
		want = perLayer
		err = measureTraced(w, opt, rec, stdout)
	} else {
		err = measureEndToEnd(w, opt, rec)
	}
	if err != nil {
		return nil, err
	}
	if err := checkEmitted(want, rec.Metrics); err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "workload %s seed %d scale %s: %d repeats, %d of %d scenario runs failed\n",
		w.name, opt.seed, opt.sc.name, rec.Repeats, rec.Failed, rec.Attempted)
	for _, f := range rec.Failures {
		fmt.Fprintf(stdout, "  FAILED %s\n", f)
	}
	for _, m := range want {
		s := rec.Metrics[m.name]
		fmt.Fprintf(stdout, "  %-36s %14.6g %-13s [%.6g .. %.6g]\n", m.name, s.Value, s.Unit, s.Min, s.Max)
	}
	fmt.Fprintf(stdout, "  sim_digest %s\n", rec.SimDigest)
	return rec, nil
}

// note counts a pass's scenario runs into the record.
func (r *record) note(ops []op, p *pass) {
	r.Attempted += len(ops)
	r.Failed += len(p.failures)
	r.Failures = append(r.Failures, p.failures...)
}

// timedPasses is the measuring loop shared by both kinds of run: an untimed
// warm-up pass, then at least opt.repeats timed ones, going on until
// opt.seconds have passed. Every pass must reproduce the first one's
// simulated statistics.
func timedPasses(ops []op, opt options, rec *record) (setup float64, passes []pass) {
	budget := time.Duration(opt.seconds) * time.Second
	var ref *pass
	if opt.warmup {
		warm := runPass(ops, opt.seed, nil, nil)
		rec.note(ops, &warm)
		ref = &warm
	}
	setup = time.Since(processStart).Seconds()
	// A further repeat starts only while more than half of it fits the
	// budget, so a run ends within half a repeat of opt.seconds either way.
	start := time.Now()
	var last time.Duration
	for i := 0; i < opt.repeats || time.Since(start)+last/2 < budget; i++ {
		began := time.Now()
		p := runPass(ops, opt.seed, nil, ref)
		last = time.Since(began)
		rec.note(ops, &p)
		passes = append(passes, p)
		if ref == nil {
			first := p
			ref = &first
		}
	}
	rec.Repeats = len(passes)
	rec.SimDigest = ref.digest
	return setup, passes
}

// coldSetup sets the workload up in a fresh process and returns the seconds
// that took: start-up, building the scenario list, and one pass over it at
// the smoke scale, which pays every first-use cost (lazy tables, memos, an
// IndexServe trace) once and little else.
func coldSetup(w workloadDef, opt options) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	out, err := exec.Command(exe, "--workload", w.name, "--seed", fmt.Sprint(opt.seed), "--setup-probe").Output()
	if err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

func measureEndToEnd(w workloadDef, opt options, rec *record) error {
	ops := w.ops(opt.sc)
	// Cold set-ups bracket the run, two before it and the others after, half
	// a minute apart, so that one slow spell of the host does not cover them
	// all; the fastest is reported, like the speed.
	var setups []float64
	probe := func(n int) error {
		for i := 0; i < n; i++ {
			s, err := coldSetup(w, opt)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		return nil
	}
	if err := probe(min(opt.coldSetups, 2)); err != nil {
		return err
	}
	inProcess, passes := timedPasses(ops, opt, rec)
	if err := probe(opt.coldSetups - len(setups)); err != nil {
		return err
	}
	if len(setups) == 0 {
		setups = []float64{inProcess}
	}
	setup := newSample("s", setups...)
	setup.Value = setup.Min
	var speed, allocs, kb []float64
	for _, p := range passes {
		speed = append(speed, p.simS/p.wallS)
		allocs = append(allocs, float64(p.mallocs)/p.simS)
		kb = append(kb, float64(p.bytes)/1024/p.simS)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	sim := simulatedOf(ops, &passes[0])
	// The speed reported is the interference-free one; the per-repeat speeds
	// stay in the record as its values, with their minimum and maximum.
	fastest := newSample("sim-s/wall-s", speed...)
	fastest.Value = passes[0].simS / bestWallS(passes)
	fastest.Max = fastest.Value // no repeat was faster than every op's best
	rec.Metrics = map[string]sample{
		"sim_s_per_wall_s":         fastest,
		"allocs_per_sim_s":         newSample("1/sim-s", allocs...),
		"alloc_kb_per_sim_s":       newSample("KiB/sim-s", kb...),
		"peak_rss_mb":              newSample("MiB", rss),
		"setup_s":                  setup,
		"harvested_cores_avg":      newSample("cores", sim.harvested),
		"goodput_core_s_per_sim_s": newSample("core-s/sim-s", sim.goodput),
		"p99_ratio_mean":           newSample("ratio", sim.p99Mean),
	}
	return nil
}

// runAll runs every workload, each in a process of its own so that memory and
// set-up are per workload, one after the other, and gathers their records
// into out. It reports whether every scenario run of every workload passed.
func runAll(opt options, smoke bool, out string, stdout, stderr io.Writer) (ok bool, err error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	// The children's records go under out/, not the system's temporary
	// directory: the benchmark writes inside its checkout only.
	if err := os.MkdirAll("out", 0o755); err != nil {
		return false, err
	}
	dir, err := os.MkdirTemp("out", "parts-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(dir)
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	var all []record
	ok = true
	for _, w := range workloads {
		part := filepath.Join(dir, w.name+".json")
		args := []string{"--workload", w.name, "--seed", fmt.Sprint(opt.seed),
			"--seconds", fmt.Sprint(opt.seconds), "--trace", trace, "--out", part}
		if smoke {
			args = append(args, "--smoke")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			return false, fmt.Errorf("workload %s: %w", w.name, err)
		}
		recs, err := readRecords(part)
		if err != nil {
			return false, err
		}
		for _, r := range recs {
			ok = ok && r.Failed == 0
		}
		all = append(all, recs...)
	}
	if out != "" {
		err = writeRecords(out, all)
	}
	return ok, err
}

func writeRecords(path string, recs []record) error {
	data, err := json.MarshalIndent(recs, "", " ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, data, 0o644)
}

func readRecords(path string) ([]record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	if err := json.Unmarshal(data, &recs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Workload < recs[j].Workload })
	return recs, nil
}
