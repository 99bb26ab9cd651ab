package experiments

import (
	"bytes"
	"fmt"
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

// TestGridOverridesFixture pins testdata/grid-overrides.json, which CI
// runs: its defaults set every key, and its second run overrides each
// key that has a valid zero value with it (a run needs a positive
// duration and warmup, a seed from 1 and an experiment). The file marshals back to
// itself, the first run inherits every default and the second none of
// the ones it overrides.
func TestGridOverridesFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/grid-overrides.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ParseGrid(data)
	if err != nil {
		t.Fatal(err)
	}
	if out, err := g.Marshal(); err != nil || !bytes.Equal(out, data) {
		t.Errorf("Marshal is not byte-identical to the fixture (%v):\n%s", err, out)
	}
	runs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range runs {
		ids = append(ids, r.ID)
	}
	if want := []string{"sched-s2", "sched-s3", "zero-s2"}; !reflect.DeepEqual(ids, want) {
		t.Fatalf("runs %v, want %v", ids, want)
	}
	inherit, zero := runs[0].Cfg, runs[2].Cfg
	if inherit.Warmup != 500*sim.Millisecond || inherit.Predictor == 0 || !inherit.Check ||
		!inherit.Faults.Enabled() || !inherit.Pools.Enabled() || fmt.Sprint(inherit.TenantMix) != "bursty" {
		t.Errorf("first run does not inherit every default: %+v", inherit)
	}
	if zero.Duration != sim.Second || zero.Warmup != 500*sim.Millisecond || zero.Seed != 2 {
		t.Errorf("zero run lost the default duration, warmup or seed: %+v", zero)
	}
	if zero.Predictor != 0 || zero.Check || zero.Faults.Enabled() ||
		zero.Pools.Enabled() || fmt.Sprint(zero.TenantMix) != "flat" {
		t.Errorf("zero run does not take its zero values: %+v", zero)
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
		{"seed zero", `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"table1","seed":0}]}`, "seed 0"},
		{"empty duration", `{"schema":"smartharvest-grid/v1","defaults":{"duration":"2s"},"runs":[{"experiment":"table1","duration":""}]}`, "bad duration"},
		{"numeric duration", `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"table1","duration":5000000000}]}`, "duration"},
		{"empty predictor", `{"schema":"smartharvest-grid/v1","defaults":{"predictor":"ewma"},"runs":[{"experiment":"table1","predictor":""}]}`, "predictor"},
		{"empty experiment", `{"schema":"smartharvest-grid/v1","defaults":{"experiment":"table1"},"runs":[{"experiment":""}]}`, "experiment required"},
		{"trailing data", `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"table1"}]} x`, "parsing grid"},
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
		if r.Cfg.Pools.String() != "name=acme,tier=spot,reserved=2" {
			t.Errorf("%s: pools %q, want the default plan", r.ID, r.Cfg.Pools)
		}
	}
	if fmt.Sprint(runs[0].Cfg.TenantMix) != "bursty" || fmt.Sprint(runs[1].Cfg.TenantMix) != "flat" {
		t.Errorf("tenants %q, %q; want bursty from defaults, flat from the run", runs[0].Cfg.TenantMix, runs[1].Cfg.TenantMix)
	}
	for _, bad := range []string{`"pools":"name=a,tier=gold,reserved=1"`, `"tenants":"diurnal"`} {
		grid := `{"schema":"smartharvest-grid/v1","runs":[{"experiment":"sched",` + bad + `}]}`
		if _, err := ParseGrid([]byte(grid)); err == nil {
			t.Errorf("ParseGrid accepted %s", bad)
		}
	}
}

// TestGridZeroWarmupAndMarshal pins two decodes: an explicit "0s"
// warmup overrides a non-zero default and is taken as zero (the run
// measures from t = 0), and Marshal writes a duration the way the file
// spells it.
func TestGridZeroWarmupAndMarshal(t *testing.T) {
	grid := func(warmup string) string {
		return `{"schema": "smartharvest-grid/v1", "defaults": {"warmup": "250ms"},
			"runs": [{"experiment": "table1", "warmup": "` + warmup + `", "duration": "1500ms"}]}`
	}
	zero, err := ParseGrid([]byte(grid("0s")))
	if err != nil {
		t.Fatalf("zero warmup over a 250ms default: %v", err)
	}
	if runs, err := zero.Expand(); err != nil || runs[0].Cfg.Warmup != 0 {
		t.Errorf("zero warmup over a 250ms default: error %v, runs %+v, want warmup 0", err, runs)
	}
	g, err := ParseGrid([]byte(grid("1ms")))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if runs[0].Cfg.Warmup != sim.Millisecond {
		t.Errorf("warmup %v, want the run's 1ms over the default 250ms", runs[0].Cfg.Warmup)
	}
	if runs[0].Cfg.Duration != 1500*sim.Millisecond {
		t.Errorf("duration %v, want 1.5s", runs[0].Cfg.Duration)
	}
	out, err := g.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), `"duration": "1500ms"`) {
		t.Errorf("Marshal does not keep the file's spelling of 1500ms:\n%s", out)
	}
}

// TestGridPoolsNone pins "pools": "none" at the golden scale: "none" is
// the zero plan, which is no plan, so sched runs market-free and market
// runs its overcommit x tier-mix grid — both reports the golden ones.
func TestGridPoolsNone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; skipped in -short")
	}
	g, err := ParseGrid([]byte(`{"schema": "smartharvest-grid/v1",
		"defaults": {"duration": "1s", "warmup": "500ms", "seed": 1, "pools": "none"},
		"runs": [{"experiment": "sched"}, {"experiment": "market"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	runs, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		t.Run(r.Experiment, func(t *testing.T) {
			t.Parallel()
			run, _ := Lookup(r.Experiment)
			rep, err := run(r.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, r.Experiment+".txt", []byte(rep.String()))
		})
	}
}
