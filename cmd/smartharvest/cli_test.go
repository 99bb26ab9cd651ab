package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"smartharvest"
)

// TestMain lets a test run this command as a child process: with
// SMARTHARVEST_RUN_MAIN set, the test binary is the smartharvest command.
func TestMain(m *testing.M) {
	if os.Getenv("SMARTHARVEST_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs this command as a child process with args and returns its
// stdout, its stderr and the error of its exit.
func runCLI(t *testing.T, args ...string) (stdout, stderr bytes.Buffer, err error) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "SMARTHARVEST_RUN_MAIN=1")
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	if ctx.Err() != nil {
		t.Fatal("still running after 30s")
	}
	return stdout, stderr, err
}

// TestCLIRefusesBadSpecs pins that -primary loads that are not finite or
// too small for the clock, -policy arguments out of range for the
// allocation, a -duration that overflows the clock and a -warmup that is
// not positive (zero would silently run the 2 s default) end the command
// with an error and a non-zero exit before anything runs — not with a
// panic or a run that never ends.
func TestCLIRefusesBadSpecs(t *testing.T) {
	for _, args := range [][]string{
		{"-primary", "memcached:-5"},
		{"-primary", "memcached:NaN"},
		{"-primary", "memcached:Inf"},
		{"-primary", "memcached:1e-300"},
		{"-primary", "moses:1e-300"},
		{"-primary", "img-dnn:1e-300"},
		{"-policy", "fixedbuffer:-1"},
		{"-policy", "fixedbuffer:40"},
		{"-policy", "prevpeak:-2"},
		{"-duration", "9223372036s"}, // + the 2 s warmup wraps the clock
		{"-warmup", "0s"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			stdout, stderr, err := runCLI(t, append([]string{"-duration", "1s"}, args...)...)
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatalf("exit 0 (%v), want a refusal; stdout:\n%s", err, stdout.String())
			}
			if got := stderr.String(); got == "" || strings.Contains(got, "panic:") {
				t.Errorf("stderr is not a refusal:\n%s", got)
			}
			if stdout.Len() > 0 {
				t.Errorf("ran before refusing; stdout:\n%s", stdout.String())
			}
		})
	}
}

// TestCLISpeedupTraceIsValid: with -speedup the -trace file holds the
// harvesting run alone, so it is a well-formed trace whose clock never
// goes back; the NoHarvest baseline is not traced into it.
func TestCLISpeedupTraceIsValid(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if _, stderr, err := runCLI(t, "-primary", "indexserve:500", "-batch", "hdinsight", "-speedup",
		"-duration", "1s", "-trace", path); err != nil {
		t.Fatalf("%v\n%s", err, stderr.String())
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	errs, err := smartharvest.ValidateTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) > 0 {
		t.Errorf("%d trace errors, the first %v", len(errs), errs[0])
	}
}

// TestCLITraceNamesPredictor: a -trace of a run with a -predictor other
// than csoaa records which predictor produced it, in one predictor line;
// the default policy's trace has none.
func TestCLITraceNamesPredictor(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"ewma", []string{"-predictor", "ewma"}, 1},
		{"default", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "trace.jsonl")
			args := append([]string{"-duration", "1s", "-trace", path}, tc.args...)
			if _, stderr, err := runCLI(t, args...); err != nil {
				t.Fatalf("%v: %v\n%s", args, err, stderr.String())
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(data, []byte(`"ev":"predictor"`)); n != tc.want {
				t.Errorf("%d predictor lines, want %d", n, tc.want)
			}
			if tc.want > 0 && !bytes.Contains(data, []byte(`"ev":"predictor","t":0,"name":"ewma","classes":11}`)) {
				t.Errorf("no ewma predictor line for 10 cores:\n%.200s", data)
			}
		})
	}
}
