package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"smartharvest/internal/sim"
)

// testGrid is a small fast grid used by the execution tests.
func testGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := ParseGrid([]byte(`{
		"schema": "smartharvest-grid/v1",
		"defaults": {"duration": "1s", "warmup": "250ms"},
		"runs": [
			{"experiment": "table1"},
			{"experiment": "fig4", "seeds": 2}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runGrid expands g and runs it, collecting the results in order.
func runGrid(t *testing.T, g *Grid, parallel int) []RunResult {
	t.Helper()
	runs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var results []RunResult
	RunGrid(runs, parallel, func(rr RunResult) { results = append(results, rr) })
	return results
}

// sortedArtifactNames lists the artifact file names (including the
// manifest) a result set produces, sorted.
func sortedArtifactNames(results []RunResult) []string {
	names := []string{"manifest.csv"}
	for _, rr := range results {
		for _, a := range Artifacts(rr) {
			names = append(names, a.Name)
		}
	}
	sort.Strings(names)
	return names
}

// TestRunGridDeterministicAcrossParallelism pins the grid's core
// guarantee: the CSV/JSON/text artifacts are byte-identical whether the
// grid runs fully serial or on a 4-way worker pool.
func TestRunGridDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; skipped in -short")
	}
	g := testGrid(t)
	serial := runGrid(t, g, 1)
	parallel := runGrid(t, g, 4)
	if len(serial) != len(parallel) {
		t.Fatalf("serial produced %d results, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("run %s failed: serial=%v parallel=%v", serial[i].ID, serial[i].Err, parallel[i].Err)
		}
		sa, pa := Artifacts(serial[i]), Artifacts(parallel[i])
		if len(sa) != len(pa) {
			t.Fatalf("%s: artifact count differs serial=%d parallel=%d", serial[i].ID, len(sa), len(pa))
		}
		for j := range sa {
			if sa[j].Name != pa[j].Name {
				t.Errorf("%s: artifact name %q vs %q", serial[i].ID, sa[j].Name, pa[j].Name)
			}
			if !bytes.Equal(sa[j].Data, pa[j].Data) {
				t.Errorf("%s: artifact %s differs between -parallel 1 and -parallel 4:\n--- serial ---\n%s--- parallel ---\n%s",
					serial[i].ID, sa[j].Name, sa[j].Data, pa[j].Data)
			}
		}
	}
}

func TestWriteArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; skipped in -short")
	}
	g := testGrid(t)
	results := runGrid(t, g, 0)
	dir := t.TempDir()
	if err := WriteArtifacts(dir, results); err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedArtifactNames(results) {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("missing artifact: %v", err)
			continue
		}
		if len(data) == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
	manifest, err := os.ReadFile(filepath.Join(dir, "manifest.csv"))
	if err != nil {
		t.Fatal(err)
	}
	want := "id,experiment,status\ntable1-s1,table1,ok\nfig4-s1,fig4,ok\nfig4-s2,fig4,ok\n"
	if string(manifest) != want {
		t.Errorf("manifest:\n%s\nwant:\n%s", manifest, want)
	}

	// Spot-check artifact shape: CSV header and JSON schema marker.
	csv, err := os.ReadFile(filepath.Join(dir, "table1-s1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "experiment,section,") {
		t.Errorf("CSV artifact does not start with the pinned header: %q", firstLine(csv))
	}
	jsn, err := os.ReadFile(filepath.Join(dir, "table1-s1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(jsn), `"schema": "smartharvest-rows/v1"`) {
		t.Errorf("JSON artifact does not carry the rows schema: %q", firstLine(jsn))
	}
}

func firstLine(b []byte) string {
	s := string(b)
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestRunGridTalliesFleetTime: a run's tally counts a fleet's simulated
// time once per server — fleet's two 8-server runs and each of sched's
// 4-server scheduler runs — and sched's checked runs.
func TestRunGridTalliesFleetTime(t *testing.T) {
	g, err := ParseGrid([]byte(`{
		"schema": "smartharvest-grid/v1",
		"defaults": {"duration": "1s", "warmup": "250ms", "check": true},
		"runs": [{"experiment": "fleet"}, {"experiment": "sched"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	results := runGrid(t, g, 2)
	for _, rr := range results {
		if rr.Err != nil {
			t.Fatalf("%s: %v", rr.ID, rr.Err)
		}
	}
	const fleetRun = 1250 * sim.Millisecond
	if fleet := results[0]; fleet.SimTime != 2*8*fleetRun || fleet.Checked != 0 {
		t.Errorf("fleet tallied %v over %d checked runs, want %v over none", fleet.SimTime, fleet.Checked, 2*8*fleetRun)
	}
	sched := results[1]
	if runs := sched.SimTime / (4 * fleetRun); runs == 0 || sched.SimTime%(4*fleetRun) != 0 ||
		sched.Checked != int64(runs) || sched.Violations != 0 {
		t.Errorf("sched tallied %v over %d checked runs with %d violations, want whole 4-server runs, each checked and clean",
			sched.SimTime, sched.Checked, sched.Violations)
	}
}
