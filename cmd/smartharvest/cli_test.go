package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
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

// TestCLIRefusesBadSpecs pins that -primary loads that are not finite and
// positive, and -policy arguments out of range for the allocation, end
// the command with an error and a non-zero exit before anything runs —
// not with a panic or a run that never ends.
func TestCLIRefusesBadSpecs(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-primary", "memcached:-5"},
		{"-primary", "memcached:NaN"},
		{"-primary", "memcached:Inf"},
		{"-policy", "fixedbuffer:-1"},
		{"-policy", "fixedbuffer:40"},
		{"-policy", "prevpeak:-2"},
	} {
		t.Run(strings.Join(args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, exe, append([]string{"-duration", "1s"}, args...)...)
			cmd.Env = append(os.Environ(), "SMARTHARVEST_RUN_MAIN=1")
			var stdout, stderr bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			err := cmd.Run()
			if ctx.Err() != nil {
				t.Fatal("still running after 30s")
			}
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
