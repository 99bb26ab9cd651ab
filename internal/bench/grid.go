// Package bench is the declarative experiment grid behind
// `cmd/experiments -grid`: a JSON plan of experiments, Config knobs and
// seeds, executed on a bounded worker pool into per-run CSV/JSON/text
// artifacts with stable schemas. (Performance is measured by the nested
// benchmark/ module, not here.)
package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"smartharvest/internal/experiments"
	"smartharvest/internal/faults"
	"smartharvest/internal/harness"
	"smartharvest/internal/sim"
)

// GridSchema versions the declarative experiment grid file. A consumer
// must refuse a grid whose schema identifier differs (DESIGN.md §11).
const GridSchema = "smartharvest-grid/v1"

// Grid is a declarative experiment plan: which experiments to run, at
// which Config knobs, over which seeds. One grid file is one
// reproducible evaluation — `cmd/experiments -grid file.json` executes
// it and emits per-run CSV/JSON/text artifacts.
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
	// Experiment is the experiment identifier (see -list). Required on
	// runs; ignored on Defaults.
	Experiment string `json:"experiment,omitempty"`
	// Duration and Warmup are Go duration strings ("6s", "1500ms").
	Duration string `json:"duration,omitempty"`
	Warmup   string `json:"warmup,omitempty"`
	// Seed is the first RNG seed; Seeds expands the run into that many
	// consecutive seeds (default 1).
	Seed  uint64 `json:"seed,omitempty"`
	Seeds int    `json:"seeds,omitempty"`
	// Predictor swaps the peak predictor on smartharvest rows
	// (csoaa, adagrad, ewma, periodic, mlp, ensemble).
	Predictor string `json:"predictor,omitempty"`
	// Check attaches the invariant checker to every scenario run.
	Check bool `json:"check,omitempty"`
	// Faults is a fault-plan string for experiments that honor
	// Config.Faults (key=value pairs, e.g. "drop=0.01,stall=0.001").
	Faults string `json:"faults,omitempty"`
}

// ParseGrid decodes and validates a grid file. Unknown fields are
// rejected — a typoed knob must not silently no-op an evaluation.
func ParseGrid(data []byte) (*Grid, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var g Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("bench: parsing grid: %w", err)
	}
	if g.Schema != GridSchema {
		return nil, fmt.Errorf("bench: grid schema %q is not %q (incompatible version; see DESIGN.md §11)",
			g.Schema, GridSchema)
	}
	if len(g.Runs) == 0 {
		return nil, fmt.Errorf("bench: grid declares no runs")
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
		return nil, fmt.Errorf("bench: %w", err)
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
		return nil, fmt.Errorf("bench: marshaling grid: %w", err)
	}
	return append(out, '\n'), nil
}

// ResolvedRun is one fully-resolved grid entry: a unique artifact ID
// plus the experiments.Config to run it with.
type ResolvedRun struct {
	ID         string
	Experiment string
	Cfg        experiments.Config
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
			return nil, fmt.Errorf("bench: grid run %d: experiment required", i)
		}
		if _, ok := experiments.Lookup(run.Experiment); !ok {
			return nil, fmt.Errorf("bench: grid run %d: unknown experiment %q", i, run.Experiment)
		}
		cfg := experiments.Quick()
		if run.Duration != "" {
			d, err := time.ParseDuration(run.Duration)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("bench: grid run %d (%s): bad duration %q", i, run.Experiment, run.Duration)
			}
			cfg.Duration = sim.Duration(d)
		}
		if run.Warmup != "" {
			d, err := time.ParseDuration(run.Warmup)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("bench: grid run %d (%s): bad warmup %q", i, run.Experiment, run.Warmup)
			}
			cfg.Warmup = sim.Duration(d)
		}
		if run.Seed != 0 {
			cfg.Seed = run.Seed
		}
		if run.Predictor != "" {
			kind, err := harness.ParsePredictor(run.Predictor)
			if err != nil {
				return nil, fmt.Errorf("bench: grid run %d (%s): %w", i, run.Experiment, err)
			}
			cfg.Predictor = kind
		}
		if run.Faults != "" {
			plan, err := faults.ParsePlan(run.Faults)
			if err != nil {
				return nil, fmt.Errorf("bench: grid run %d (%s): %w", i, run.Experiment, err)
			}
			cfg.Faults = plan
		}
		cfg.Check = run.Check
		seeds := run.Seeds
		if seeds < 0 {
			return nil, fmt.Errorf("bench: grid run %d (%s): negative seeds", i, run.Experiment)
		}
		if seeds == 0 {
			seeds = 1
		}
		if seeds > maxSeeds {
			return nil, fmt.Errorf("bench: grid run %d (%s): %d seeds exceeds %d", i, run.Experiment, seeds, maxSeeds)
		}
		if run.ID != "" && !safeStem(run.ID) {
			return nil, fmt.Errorf("bench: grid run %d (%s): run id %q is not a safe file stem "+
				"(use A-Z a-z 0-9 . _ - and do not start with .)", i, run.Experiment, run.ID)
		}
		for rep := 0; rep < seeds; rep++ {
			rcfg := cfg
			rcfg.Seed = cfg.Seed + uint64(rep)
			id := run.ID
			if id == "" {
				id = run.Experiment
			}
			id = fmt.Sprintf("%s-s%d", id, rcfg.Seed)
			if seen[id] {
				return nil, fmt.Errorf("bench: grid run %d (%s): duplicate run id %q", i, run.Experiment, id)
			}
			seen[id] = true
			out = append(out, ResolvedRun{ID: id, Experiment: run.Experiment, Cfg: rcfg})
		}
	}
	return out, nil
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

// merged overlays run's set fields on the defaults.
func merged(def, run GridRun) GridRun {
	out := run
	if out.Experiment == "" {
		out.Experiment = def.Experiment
	}
	if out.Duration == "" {
		out.Duration = def.Duration
	}
	if out.Warmup == "" {
		out.Warmup = def.Warmup
	}
	if out.Seed == 0 {
		out.Seed = def.Seed
	}
	if out.Seeds == 0 {
		out.Seeds = def.Seeds
	}
	if out.Predictor == "" {
		out.Predictor = def.Predictor
	}
	if !out.Check {
		out.Check = def.Check
	}
	if out.Faults == "" {
		out.Faults = def.Faults
	}
	return out
}
