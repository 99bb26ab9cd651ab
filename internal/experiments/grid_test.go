package experiments

import (
	"bytes"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"smartharvest/internal/sim"
)

// TestGridFixtureGolden pins the grid file format: the checked-in
// fixture must parse, marshal back to the identical bytes, and
// round-trip to an identical Grid value.
func TestGridFixtureGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/grid.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseGrid(data)
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Errorf("Marshal is not byte-identical to the checked-in fixture:\n--- fixture ---\n%s--- marshal ---\n%s", data, out)
	}
	g2, err := ParseGrid(out)
	if err != nil {
		t.Fatalf("re-parsing marshaled grid: %v", err)
	}
	if !reflect.DeepEqual(g, g2) {
		t.Errorf("parse -> marshal -> parse changed the grid:\n%+v\nvs\n%+v", g, g2)
	}
}

func TestGridExpand(t *testing.T) {
	g, err := LoadGrid("testdata/grid.json")
	if err != nil {
		t.Fatal(err)
	}
	runs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"table1-s1", "fig4-s1", "table1-multiseed-s1", "table1-multiseed-s2"}
	if len(runs) != len(wantIDs) {
		t.Fatalf("expanded to %d runs, want %d", len(runs), len(wantIDs))
	}
	for i, want := range wantIDs {
		if runs[i].ID != want {
			t.Errorf("run %d id = %q, want %q", i, runs[i].ID, want)
		}
	}
	for _, r := range runs {
		if r.Cfg.Duration != sim.Duration(time.Second) {
			t.Errorf("%s: duration %v, want 1s from defaults", r.ID, r.Cfg.Duration)
		}
		if r.Cfg.Warmup != sim.Duration(250*time.Millisecond) {
			t.Errorf("%s: warmup %v, want 250ms from defaults", r.ID, r.Cfg.Warmup)
		}
	}
	if runs[2].Cfg.Seed != 1 || runs[3].Cfg.Seed != 2 {
		t.Errorf("seed family expanded to seeds %d,%d, want 1,2", runs[2].Cfg.Seed, runs[3].Cfg.Seed)
	}
}

func TestGridValidationErrors(t *testing.T) {
	cases := []struct {
		name, grid, wantErr string
	}{
		{"wrong schema", `{"schema":"smartharvest-grid/v2","runs":[{"experiment":"table1"}]}`, "schema"},
		{"no runs", `{"schema":"smartharvest-grid/v1","runs":[]}`, "no runs"},
		{"unknown field", `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"table1","durration":"6s"}]}`, "unknown field"},
		{"missing experiment", `{"schema":"smartharvest-grid/v1","runs":[{"seed":3}]}`, "experiment required"},
		{"unknown experiment", `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"fig99"}]}`, "unknown experiment"},
		{"bad duration", `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"table1","duration":"fast"}]}`, "bad duration"},
		{"negative warmup", `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"table1","warmup":"-1s"}]}`, "bad warmup"},
		{"bad predictor", `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"table1","predictor":"oracle9000"}]}`, "predictor"},
		{"bad faults", `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"table1","faults":"drop=many"}]}`, "fault"},
		{"negative seeds", `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"table1","seeds":-2}]}`, "negative seeds"},
		{"too many seeds", `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"table1","seeds":2000000000}]}`, "seeds exceeds"},
		{"duplicate ids", `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"table1"},{"experiment":"table1"}]}`, "duplicate run id"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseGrid([]byte(tc.grid))
			if err == nil {
				t.Fatalf("ParseGrid accepted invalid grid %s", tc.grid)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestGridRejectsEscapingID: an id is a file stem inside -grid-out, so
// one that climbs out of the directory (or hides in it) is refused.
func TestGridRejectsEscapingID(t *testing.T) {
	for _, id := range []string{"../escaped", "sub/run", ".hidden", ".."} {
		grid := `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"table1","id":` + strconv.Quote(id) + `}]}`
		if _, err := ParseGrid([]byte(grid)); err == nil || !strings.Contains(err.Error(), "safe file stem") {
			t.Errorf("id %q: err = %v, want a safe-file-stem error", id, err)
		}
	}
}

// TestGridRejectsUnquotedManifestID: the manifest writes ids unquoted, so
// one carrying CSV syntax is refused rather than corrupting the manifest.
func TestGridRejectsUnquotedManifestID(t *testing.T) {
	for _, id := range []string{`a,"b`, "a,b", "a\nb", "a b"} {
		grid := `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"table1","id":` + strconv.Quote(id) + `}]}`
		if _, err := ParseGrid([]byte(grid)); err == nil || !strings.Contains(err.Error(), "safe file stem") {
			t.Errorf("id %q: err = %v, want a safe-file-stem error", id, err)
		}
	}
}

func TestGridDefaultsMerge(t *testing.T) {
	g, err := ParseGrid([]byte(`{
		"schema": "smartharvest-grid/v1",
		"defaults": {"duration": "2s", "predictor": "ewma", "check": true},
		"runs": [
			{"experiment": "fig7"},
			{"experiment": "fig7", "id": "fig7-csoaa", "predictor": "csoaa", "duration": "3s"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Cfg.Duration != sim.Duration(2*time.Second) {
		t.Errorf("run 0 duration %v, want default 2s", runs[0].Cfg.Duration)
	}
	if runs[1].Cfg.Duration != sim.Duration(3*time.Second) {
		t.Errorf("run 1 duration %v, want override 3s", runs[1].Cfg.Duration)
	}
	if !runs[0].Cfg.Check || !runs[1].Cfg.Check {
		t.Error("check default did not propagate to both runs")
	}
	if runs[0].Cfg.Predictor == runs[1].Cfg.Predictor {
		t.Error("predictor override did not take effect")
	}
}

// TestGridPoolsTenants pins the pools and tenants keys: they merge from
// the defaults like every other key, land on Config.Pools and
// Config.TenantMix, and are validated by their own grammars.
func TestGridPoolsTenants(t *testing.T) {
	g, err := ParseGrid([]byte(`{
		"schema": "smartharvest-grid/v1",
		"defaults": {"pools": "name=acme,tier=spot,reserved=2", "tenants": "bursty"},
		"runs": [{"experiment": "sched"}, {"experiment": "market", "tenants": "flat"}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Cfg.Pools != "name=acme,tier=spot,reserved=2" {
			t.Errorf("%s: pools %q, want the default plan", r.ID, r.Cfg.Pools)
		}
	}
	if runs[0].Cfg.TenantMix != "bursty" || runs[1].Cfg.TenantMix != "flat" {
		t.Errorf("tenants %q, %q; want bursty from defaults, flat from the run", runs[0].Cfg.TenantMix, runs[1].Cfg.TenantMix)
	}
	for _, bad := range []string{`"pools":"name=a,tier=gold,reserved=1"`, `"tenants":"diurnal"`} {
		grid := `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"sched",` + bad + `}]}`
		if _, err := ParseGrid([]byte(grid)); err == nil {
			t.Errorf("ParseGrid accepted %s", bad)
		}
	}
}
