package experiments

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"smartharvest/internal/harness"
)

// GridSchema versions the declarative experiment grid file. A consumer
// must refuse a grid whose schema identifier differs (DESIGN.md §11).
const GridSchema = "smartharvest-grid/v1"

// Grid is a declarative experiment plan: which experiments to run, at
// which Config knobs, over which seeds. One grid file is one
// reproducible evaluation — `cmd/experiments -grid file.json` executes
// it and emits per-run CSV/JSON/text artifacts.
//
// The file is the run description: Grid keeps the defaults and each
// run as the JSON objects the file holds, and Expand decodes the
// defaults and then the run's object into one GridRun. A key present in
// the run overrides the default, its zero value ("csoaa", "flat", false)
// too.
type Grid struct {
	Schema string `json:"schema"`
	// Defaults holds the keys every run starts from (all but id).
	Defaults json.RawMessage   `json:"defaults,omitempty"`
	Runs     []json.RawMessage `json:"runs"`
}

// GridRun is one grid run as it decodes: an experiment execution, or
// with Seeds > 1 a consecutive-seed family, at a Config. Keys a run and
// its defaults leave out keep Quick's values (6 s, 2 s warmup, seed 1).
// cmd/experiments builds one per positional id from its flags.
type GridRun struct {
	// ID is the artifact file stem; default "<experiment>-s<seed>". It
	// may use only A-Z, a-z, 0-9, '.', '_' and '-', and may not start
	// with '.', so it names a plain file inside the output directory.
	ID string `json:"id"`
	// Experiment is the experiment identifier (see -list). Every run
	// needs one, its own or the defaults'.
	Experiment string `json:"experiment"`
	// Seeds expands the run into that many consecutive seeds from
	// Config.Seed (default 1).
	Seeds int `json:"seeds"`
	Config
}

// ParseGrid decodes and validates a grid file. Unknown fields are
// rejected — a typoed knob must not silently no-op an evaluation.
func ParseGrid(data []byte) (*Grid, error) {
	// Compacting drops the file's layout first, so that a grid equals
	// its own Marshal parsed back.
	var b bytes.Buffer
	if err := json.Compact(&b, data); err != nil {
		return nil, fmt.Errorf("experiments: parsing grid: %w", err)
	}
	dec := json.NewDecoder(&b)
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

// Marshal renders the grid as indented JSON with a trailing newline,
// every value spelled as the file spelled it. ParseGrid(Marshal(g))
// round-trips to an identical Grid, and Marshal(ParseGrid(file)) is
// byte-stable — the golden fixture pins it.
func (g *Grid) Marshal() ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(g); err != nil {
		return nil, fmt.Errorf("experiments: marshaling grid: %w", err)
	}
	return b.Bytes(), nil
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

// Expand decodes every run over the defaults and resolves them
// (Resolve): one ResolvedRun per (run, seed) in declaration order.
func (g *Grid) Expand() ([]ResolvedRun, error) {
	runs := make([]GridRun, len(g.Runs))
	for i, obj := range g.Runs {
		runs[i].Config = Quick()
		if err := decodeRun(g.Defaults, &runs[i]); err != nil {
			return nil, fmt.Errorf("experiments: grid defaults: %w", err)
		}
		runs[i].ID = "" // an id names one run
		if err := decodeRun(obj, &runs[i]); err != nil {
			return nil, fmt.Errorf("experiments: grid run %d: %w", i, err)
		}
	}
	return Resolve(runs)
}

// decodeRun decodes one grid object into run, refusing unknown keys.
// Each value decodes by its own type's UnmarshalText.
func decodeRun(obj json.RawMessage, run *GridRun) error {
	if obj == nil {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(obj))
	dec.DisallowUnknownFields()
	return dec.Decode(run)
}

// Resolve validates runs and expands their seed families, returning one
// ResolvedRun per (run, seed) in declaration order.
func Resolve(runs []GridRun) ([]ResolvedRun, error) {
	var out []ResolvedRun
	seen := map[string]bool{}
	for i, run := range runs {
		if run.Experiment == "" {
			return nil, fmt.Errorf("experiments: grid run %d: experiment required", i)
		}
		if _, ok := Lookup(run.Experiment); !ok {
			return nil, fmt.Errorf("experiments: grid run %d: unknown experiment %q (use -list)", i, run.Experiment)
		}
		if err := run.check(); err != nil {
			return nil, fmt.Errorf("experiments: grid run %d (%s): %w", i, run.Experiment, err)
		}
		stem := cmp.Or(run.ID, run.Experiment)
		for rep := range max(run.Seeds, 1) {
			cfg := run.Config
			cfg.Seed += uint64(rep)
			id := fmt.Sprintf("%s-s%d", stem, cfg.Seed)
			if seen[id] {
				return nil, fmt.Errorf("experiments: grid run %d (%s): duplicate run id %q", i, run.Experiment, id)
			}
			seen[id] = true
			out = append(out, ResolvedRun{ID: id, Experiment: run.Experiment, Cfg: cfg, Run: i})
		}
	}
	return out, nil
}

// check refuses the values no run can take: their types decode them,
// but a run needs a positive duration, a positive warmup (the harness
// reads zero as its 2 s default), a seed from 1, a bounded seed family
// and an id that is a safe file stem.
func (run GridRun) check() error {
	switch {
	case run.Duration <= 0:
		return fmt.Errorf("bad duration %v", run.Duration)
	case run.Warmup <= 0:
		return fmt.Errorf("bad warmup %v: want a positive warmup (zero would run the 2s default)", run.Warmup)
	case run.Seed == 0:
		return fmt.Errorf("seed 0: seeds start at 1")
	case run.Seeds < 0:
		return fmt.Errorf("negative seeds")
	case run.Seeds > maxSeeds:
		return fmt.Errorf("%d seeds exceeds %d", run.Seeds, maxSeeds)
	case run.ID != "" && !safeStem(run.ID):
		return fmt.Errorf("run id %q is not a safe file stem "+
			"(use A-Z a-z 0-9 . _ - and do not start with .)", run.ID)
	}
	return nil
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
