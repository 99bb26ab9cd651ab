package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"smartharvest/internal/experiments"
	"smartharvest/internal/harness"
)

// RunResult is one executed grid entry.
type RunResult struct {
	ID         string
	Experiment string
	Report     *experiments.Report
	Err        error
}

// RunGrid executes every resolved run of the grid on a bounded worker
// pool, in declaration order. parallel bounds both the run pool and
// each run's scenario pool (0 = GOMAXPROCS, 1 = fully serial); results
// and artifacts are byte-identical at any setting, which the grid
// golden tests pin.
func RunGrid(g *Grid, parallel int) ([]RunResult, error) {
	runs, err := g.Expand()
	if err != nil {
		return nil, err
	}
	results := make([]RunResult, len(runs))
	harness.ForEach(len(runs), parallel, func(i int) {
		run, _ := experiments.Lookup(runs[i].Experiment) // validated by Expand
		cfg := runs[i].Cfg
		cfg.Parallel = parallel
		rep, err := run(cfg)
		results[i] = RunResult{
			ID: runs[i].ID, Experiment: runs[i].Experiment,
			Report: rep, Err: err,
		}
	})
	return results, nil
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
		return fmt.Errorf("bench: %w", err)
	}
	manifest := "id,experiment,status\n"
	for _, rr := range results {
		status := "ok"
		if rr.Err != nil {
			status = "error"
		}
		manifest += fmt.Sprintf("%s,%s,%s\n", csvField(rr.ID), csvField(rr.Experiment), status)
		for _, a := range Artifacts(rr) {
			if err := os.WriteFile(filepath.Join(dir, a.Name), a.Data, 0o644); err != nil {
				return fmt.Errorf("bench: writing %s: %w", a.Name, err)
			}
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.csv"), []byte(manifest), 0o644); err != nil {
		return fmt.Errorf("bench: writing manifest: %w", err)
	}
	return nil
}

// csvField is a minimal CSV escape for manifest fields.
func csvField(s string) string {
	for _, r := range s {
		if r == ',' || r == '"' || r == '\n' {
			return `"` + s + `"` // ids/experiments never contain quotes
		}
	}
	return s
}

// SortedArtifactNames lists artifact file names (including the
// manifest) a result set would produce, sorted — handy for tests.
func SortedArtifactNames(results []RunResult) []string {
	names := []string{"manifest.csv"}
	for _, rr := range results {
		for _, a := range Artifacts(rr) {
			names = append(names, a.Name)
		}
	}
	sort.Strings(names)
	return names
}
