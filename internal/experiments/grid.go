package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"smartharvest/internal/faults"
	"smartharvest/internal/harness"
	"smartharvest/internal/market"
	"smartharvest/internal/sim"
	"smartharvest/internal/workload"
)

// GridSchema versions the declarative experiment grid file. A consumer
// must refuse a grid whose schema identifier differs (DESIGN.md §11).
const GridSchema = "smartharvest-grid/v1"

// Grid is a declarative experiment plan: which experiments to run, at
// which Config knobs, over which seeds. One grid file is one
// reproducible evaluation — `cmd/experiments -grid file.json` executes
// it and emits per-run CSV/JSON/text artifacts. cmd/experiments reads
// its run flags and positional ids as a Grid too, so both front-ends
// share one Expand and one RunGrid.
type Grid struct {
	Schema string `json:"schema"`
	// Defaults seed every run's unset fields.
	Defaults *GridRun  `json:"defaults,omitempty"`
	Runs     []GridRun `json:"runs"`
}

// GridRun declares one experiment execution (or, with Seeds > 1, a
// consecutive-seed family). Zero fields inherit from Grid.Defaults,
// then from the built-in defaults (quick scale, seed 1).
type GridRun struct {
	// ID is the artifact file stem; default "<experiment>-s<seed>". It
	// may use only A-Z, a-z, 0-9, '.', '_' and '-', and may not start
	// with '.', so it names a plain file inside the output directory.
	ID string `json:"id,omitempty"`
	// Experiment is the experiment identifier (see -list). Every run
	// needs one, its own or the defaults'.
	Experiment string `json:"experiment,omitempty"`
	// Duration and Warmup are Go duration strings ("6s", "1500ms").
	Duration string `json:"duration,omitempty"`
	Warmup   string `json:"warmup,omitempty"`
	// Seed is the first RNG seed; Seeds expands the run into that many
	// consecutive seeds (default 1).
	Seed  uint64 `json:"seed,omitempty"`
	Seeds int    `json:"seeds,omitempty"`
	// Predictor swaps the peak predictor on smartharvest rows (a
	// PredictorKind name).
	Predictor string `json:"predictor,omitempty"`
	// Check attaches the invariant checker to every scenario run.
	Check bool `json:"check,omitempty"`
	// Faults is a fault-plan string for experiments that honor
	// Config.Faults (key=value pairs, e.g. "drop=0.01,stall=0.001").
	Faults string `json:"faults,omitempty"`
	// Pools is a pool plan (Config.Pools) and Tenants a tenant class
	// (Config.TenantMix), both for the sched and market experiments.
	Pools   string `json:"pools,omitempty"`
	Tenants string `json:"tenants,omitempty"`
}

// ParseGrid decodes and validates a grid file. Unknown fields are
// rejected — a typoed knob must not silently no-op an evaluation.
func ParseGrid(data []byte) (*Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("experiments: parsing grid: %w", err)
	}
	if g.Schema != GridSchema {
		return nil, fmt.Errorf("experiments: grid schema %q is not %q (incompatible version; see DESIGN.md §11)",
			g.Schema, GridSchema)
	}
	if len(g.Runs) == 0 {
		return nil, fmt.Errorf("experiments: grid declares no runs")
	}
	if _, err := g.Expand(); err != nil {
		return nil, err
	}
	return &g, nil
}

// LoadGrid reads and parses a grid file.
func LoadGrid(path string) (*Grid, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	g, err := ParseGrid(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

// Marshal renders the grid as indented JSON with a trailing newline.
// ParseGrid(Marshal(g)) round-trips to an identical Grid, and
// Marshal(ParseGrid(file)) is byte-stable — the golden fixture pins it.
func (g *Grid) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiments: marshaling grid: %w", err)
	}
	return append(out, '\n'), nil
}

// ResolvedRun is one fully-resolved grid entry: a unique artifact ID
// plus the Config to run it with.
type ResolvedRun struct {
	ID         string
	Experiment string
	Cfg        Config
	// Run indexes the Grid.Runs entry this run is one seed of.
	Run int
}

// Expand applies defaults, expands seed families, and validates every
// knob, returning one ResolvedRun per (run, seed) in declaration order.
func (g *Grid) Expand() ([]ResolvedRun, error) {
	var out []ResolvedRun
	seen := map[string]bool{}
	for i, run := range g.Runs {
		if g.Defaults != nil {
			run = merged(*g.Defaults, run)
		}
		if run.Experiment == "" {
			return nil, fmt.Errorf("experiments: grid run %d: experiment required", i)
		}
		if _, ok := Lookup(run.Experiment); !ok {
			return nil, fmt.Errorf("experiments: grid run %d: unknown experiment %q (use -list)", i, run.Experiment)
		}
		cfg, seeds, err := run.resolve()
		if err != nil {
			return nil, fmt.Errorf("experiments: grid run %d (%s): %w", i, run.Experiment, err)
		}
		for rep := range seeds {
			rcfg := cfg
			rcfg.Seed = cfg.Seed + uint64(rep)
			id := run.ID
			if id == "" {
				id = run.Experiment
			}
			id = fmt.Sprintf("%s-s%d", id, rcfg.Seed)
			if seen[id] {
				return nil, fmt.Errorf("experiments: grid run %d (%s): duplicate run id %q", i, run.Experiment, id)
			}
			seen[id] = true
			out = append(out, ResolvedRun{ID: id, Experiment: run.Experiment, Cfg: rcfg, Run: i})
		}
	}
	return out, nil
}

// resolve validates run's knobs over the Quick defaults and returns the
// Config of its first seed and the size of its seed family.
func (run GridRun) resolve() (cfg Config, seeds int, err error) {
	cfg = Quick()
	if run.Duration != "" {
		d, err := time.ParseDuration(run.Duration)
		if err != nil || d <= 0 {
			return cfg, 0, fmt.Errorf("bad duration %q", run.Duration)
		}
		cfg.Duration = sim.Duration(d)
	}
	if run.Warmup != "" {
		d, err := time.ParseDuration(run.Warmup)
		if err != nil || d < 0 {
			return cfg, 0, fmt.Errorf("bad warmup %q", run.Warmup)
		}
		cfg.Warmup = sim.Duration(d)
	}
	if run.Seed != 0 {
		cfg.Seed = run.Seed
	}
	if run.Predictor != "" {
		if cfg.Predictor, err = harness.ParsePredictor(run.Predictor); err != nil {
			return cfg, 0, err
		}
	}
	if cfg.Faults, err = faults.ParsePlan(run.Faults); err != nil {
		return cfg, 0, err
	}
	if _, err = market.ParsePools(run.Pools); err != nil {
		return cfg, 0, err
	}
	if run.Tenants != "" {
		if _, err = workload.ParseClass(run.Tenants); err != nil {
			return cfg, 0, err
		}
	}
	cfg.Pools, cfg.TenantMix, cfg.Check = run.Pools, run.Tenants, run.Check
	switch seeds = max(run.Seeds, 1); {
	case run.Seeds < 0:
		return cfg, 0, fmt.Errorf("negative seeds")
	case seeds > maxSeeds:
		return cfg, 0, fmt.Errorf("%d seeds exceeds %d", seeds, maxSeeds)
	case run.ID != "" && !safeStem(run.ID):
		return cfg, 0, fmt.Errorf("run id %q is not a safe file stem "+
			"(use A-Z a-z 0-9 . _ - and do not start with .)", run.ID)
	}
	return cfg, seeds, nil
}

// maxSeeds bounds one run's seed family, so a typo cannot expand a grid
// into billions of runs.
const maxSeeds = 10000

// safeStem reports whether id can name an artifact file inside the
// output directory: non-empty, only [A-Za-z0-9._-], no leading '.'.
func safeStem(id string) bool {
	if id == "" || id[0] == '.' {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// merged overlays run's set fields on the defaults: every zero field of
// run but its id takes the default's value.
func merged(def, run GridRun) GridRun {
	r, d := reflect.ValueOf(&run).Elem(), reflect.ValueOf(def)
	for i := range r.NumField() {
		if f := r.Field(i); f.IsZero() && r.Type().Field(i).Name != "ID" {
			f.Set(d.Field(i))
		}
	}
	return run
}

// RunResult is one executed grid entry.
type RunResult struct {
	ResolvedRun
	Report *Report
	Err    error
	// Wall is the run's wall-clock time.
	Wall time.Duration
}

// RunGrid executes runs on a bounded worker pool and hands each result
// to emit in declaration order, as soon as it and every run before it
// are done. parallel bounds both the run pool and each run's scenario
// pool (0 = GOMAXPROCS, 1 = fully serial); results and artifacts are
// byte-identical at any setting, which the grid golden tests pin.
// RunGrid returns the number of workers used.
func RunGrid(runs []ResolvedRun, parallel int, emit func(RunResult)) int {
	ready := make([]chan RunResult, len(runs))
	for i := range ready {
		ready[i] = make(chan RunResult, 1)
	}
	used := make(chan int, 1)
	go func() {
		used <- harness.ForEach(len(runs), parallel, func(i int) {
			run, _ := Lookup(runs[i].Experiment) // validated by Expand
			cfg := runs[i].Cfg
			cfg.Parallel = parallel
			start := time.Now()
			rep, err := run(cfg)
			ready[i] <- RunResult{ResolvedRun: runs[i], Report: rep, Err: err, Wall: time.Since(start)}
		})
	}()
	for _, r := range ready {
		emit(<-r)
	}
	return <-used
}

// Artifact is one emitted file of a grid run.
type Artifact struct {
	Name string
	Data []byte
}

// Artifacts renders one run's machine-readable and text outputs:
// <id>.csv and <id>.json (rows schema smartharvest-rows/v1) plus
// <id>.txt (the human report). Failed runs produce no artifacts.
func Artifacts(rr RunResult) []Artifact {
	if rr.Err != nil || rr.Report == nil {
		return nil
	}
	return []Artifact{
		{Name: rr.ID + ".csv", Data: rr.Report.CSV()},
		{Name: rr.ID + ".json", Data: rr.Report.RowsJSON()},
		{Name: rr.ID + ".txt", Data: []byte(rr.Report.String())},
	}
}

// WriteArtifacts writes every run's artifacts plus a manifest.csv
// (run id, experiment, status) into dir, creating it if needed.
func WriteArtifacts(dir string, results []RunResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	manifest := "id,experiment,status\n"
	for _, rr := range results {
		status := "ok"
		if rr.Err != nil {
			status = "error"
		}
		// Expand admits only safe file stems and registered experiment
		// IDs, so neither field needs CSV quoting.
		manifest += fmt.Sprintf("%s,%s,%s\n", rr.ID, rr.Experiment, status)
		for _, a := range Artifacts(rr) {
			if err := os.WriteFile(filepath.Join(dir, a.Name), a.Data, 0o644); err != nil {
				return fmt.Errorf("experiments: writing %s: %w", a.Name, err)
			}
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.csv"), []byte(manifest), 0o644); err != nil {
		return fmt.Errorf("experiments: writing manifest: %w", err)
	}
	return nil
}
