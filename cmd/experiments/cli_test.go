package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets a test run this command as a child process: with
// EXPERIMENTS_RUN_MAIN set, the test binary is the experiments command
// and its arguments are the command's flags.
func TestMain(m *testing.M) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs the experiments command with args and returns its stdout,
// stderr and exit code.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// goldenScale is the scale internal/experiments pins every report at.
var goldenScale = []string{"-duration", "1s", "-warmup", "500ms", "-seed", "1"}

// goldenDir holds the experiment goldens.
const goldenDir = "../../internal/experiments/testdata/golden"

// sameFile fails t unless the file at got holds the bytes of the file
// at want.
func sameFile(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s differs from %s:\n--- want ---\n%s\n--- got ---\n%s", got, want, w, g)
	}
}

// TestCLIMatchesGoldens pins both front-ends of this command to the
// experiment goldens: positional ids with -out write <id>.txt, and a
// grid file with -grid-out writes <id>-s<seed>.{txt,csv,json}, each byte
// for byte what internal/experiments pins at the same scale.
func TestCLIMatchesGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; skipped in -short")
	}
	ids := []string{"table1", "fig4"}
	t.Run("positional", func(t *testing.T) {
		dir := t.TempDir()
		args := append(append([]string{}, goldenScale...), "-out", dir)
		if _, stderr, code := runCLI(t, append(args, ids...)...); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		for _, id := range ids {
			sameFile(t, filepath.Join(dir, id+".txt"), filepath.Join(goldenDir, id+".txt"))
		}
	})
	t.Run("grid", func(t *testing.T) {
		dir := t.TempDir()
		grid := filepath.Join(dir, "grid.json")
		spec := `{"schema": "smartharvest-grid/v1",
			"defaults": {"duration": "1s", "warmup": "500ms", "seed": 1},
			"runs": [{"experiment": "table1"}, {"experiment": "fig4"}]}`
		if err := os.WriteFile(grid, []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "out")
		if _, stderr, code := runCLI(t, "-grid", grid, "-grid-out", out); code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		for _, id := range ids {
			for _, ext := range []string{".txt", ".csv", ".json"} {
				sameFile(t, filepath.Join(out, id+"-s1"+ext), filepath.Join(goldenDir, id+ext))
			}
		}
		manifest, err := os.ReadFile(filepath.Join(out, "manifest.csv"))
		if err != nil {
			t.Fatal(err)
		}
		if want := "id,experiment,status\ntable1-s1,table1,ok\nfig4-s1,fig4,ok\n"; string(manifest) != want {
			t.Errorf("manifest:\n%s\nwant:\n%s", manifest, want)
		}
	})
	t.Run("seeds", func(t *testing.T) {
		dir := t.TempDir()
		args := append(append([]string{}, goldenScale...), "-seeds", "2", "-out", dir, "table1")
		stdout, stderr, code := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("exit %d: %s", code, stderr)
		}
		golden, err := os.ReadFile(filepath.Join(goldenDir, "table1.txt"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "table1.txt"))
		if err != nil {
			t.Fatal(err)
		}
		first := "[seed 1]\n" + string(golden)
		if !strings.HasPrefix(string(got), first+"[seed 2]\n== table1: ") {
			t.Errorf("table1.txt does not hold seed 1's golden report and then seed 2's under [seed N] headers:\n%s", got)
		}
		if !strings.HasPrefix(stdout, first) || !strings.Contains(stdout, "[seed 2]\n== table1: ") {
			t.Errorf("stdout lacks the [seed N] headers:\n%s", stdout)
		}
	})
}

// TestRunDescriptionRefusals pins what the command refuses before it
// runs anything: -grid with any run flag or positional id (the grid file
// declares those), and, through the grid's own validation, flags that
// describe no valid run.
func TestRunDescriptionRefusals(t *testing.T) {
	const fixture = "../../internal/experiments/testdata/grid.json"
	cases := []struct {
		name string
		args []string
		want []string // each must appear in stderr
	}{
		{"grid drops run flags", []string{"-grid", fixture, "-check", "-seed", "7", "-faults", "drop=0.5", "-trace", t.TempDir(), "fig5"},
			[]string{"-check", "-seed", "-faults", "fig5"}},
		{"grid with -duration", []string{"-grid", fixture, "-duration", "1s"}, []string{"-duration"}},
		{"grid with -warmup", []string{"-grid", fixture, "-warmup", "1s"}, []string{"-warmup"}},
		{"grid with -quick", []string{"-grid", fixture, "-quick"}, []string{"-quick"}},
		{"grid with -seeds", []string{"-grid", fixture, "-seeds", "2"}, []string{"-seeds"}},
		{"grid with -predictor", []string{"-grid", fixture, "-predictor", "ewma"}, []string{"-predictor"}},
		{"grid with -pools", []string{"-grid", fixture, "-pools", "name=a,tier=spot,reserved=2"}, []string{"-pools"}},
		{"grid with -tenants", []string{"-grid", fixture, "-tenants", "flat"}, []string{"-tenants"}},
		{"grid with -out", []string{"-grid", fixture, "-out", t.TempDir()}, []string{"-out"}},
		{"grid with an id", []string{"-grid", fixture, "table1"}, []string{"table1"}},
		{"zero duration", []string{"-duration", "0s", "table1"}, []string{"bad duration"}},
		{"negative duration", []string{"-duration", "-1s", "table1"}, []string{"bad duration"}},
		{"negative seeds", []string{"-seeds", "-1", "table1"}, []string{"negative seeds"}},
		{"seed zero", []string{"-seed", "0", "table1"}, []string{"-seed 0"}},
		{"unknown id", []string{"-duration", "1s", "table1", "fig99"}, []string{"unknown experiment", "fig99"}},
		{"duplicate id", []string{"-duration", "1s", "table1", "table1"}, []string{"duplicate run id"}},
		{"bad fault plan", []string{"-faults", "drop=many", "sched"}, []string{"drop"}},
		{"bad tenants", []string{"-tenants", "diurnal", "sched"}, []string{"diurnal"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, code := runCLI(t, c.args...)
			if code == 0 {
				t.Fatalf("exit 0, want a refusal; stdout:\n%s", stdout)
			}
			if stdout != "" {
				t.Errorf("ran before refusing; stdout:\n%s", stdout)
			}
			for _, w := range c.want {
				if !strings.Contains(stderr, w) {
					t.Errorf("stderr %q does not name %q", stderr, w)
				}
			}
			if strings.Contains(stderr, "-trace") {
				t.Errorf("stderr %q refuses -trace, which applies to grids too", stderr)
			}
		})
	}
}

// TestGridHonorsTrace pins that -trace applies to grid runs too: every
// resolved run writes its JSONL traces into the directory.
func TestGridHonorsTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations; skipped in -short")
	}
	dir := t.TempDir()
	grid := filepath.Join(dir, "grid.json")
	spec := `{"schema": "smartharvest-grid/v1", "runs": [{"experiment": "fig4", "duration": "1s", "warmup": "500ms"}]}`
	if err := os.WriteFile(grid, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	traces := filepath.Join(dir, "traces")
	if _, stderr, code := runCLI(t, "-grid", grid, "-grid-out", filepath.Join(dir, "out"), "-trace", traces); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	files, err := filepath.Glob(filepath.Join(traces, "*.jsonl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("-trace with -grid wrote no traces (%v)", err)
	}
}
