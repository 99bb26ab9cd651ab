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
)

// TestMain lets a test run this command as a child process: with
// HOSTAGENT_RUN_MAIN set, the test binary is the hostagent command.
func TestMain(m *testing.M) {
	if os.Getenv("HOSTAGENT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestPolicyRefusedBeforeCgroups pins that a -policy argument out of
// range for the allocation ends the command with an error and a
// non-zero exit before it writes any cpuset, instead of panicking after
// it has.
func TestPolicyRefusedBeforeCgroups(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []string{"fixedbuffer:-1", "fixedbuffer:40", "prevpeak:-2", "ewma:3"} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			primary, elastic := filepath.Join(dir, "primary"), filepath.Join(dir, "elastic")
			for _, d := range []string{primary, elastic} {
				if err := os.Mkdir(d, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			// Eleven cores: an allocation of 10 after the elastic core.
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, exe, "-primary-cgroup", primary, "-elastic-cgroup", elastic,
				"-cores", "0-10", "-stats", "0", "-policy", policy)
			cmd.Env = append(os.Environ(), "HOSTAGENT_RUN_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			var exit *exec.ExitError
			if err := cmd.Run(); !errors.As(err, &exit) {
				t.Fatalf("exit 0 (%v), want a refusal", err)
			}
			if got := stderr.String(); !strings.HasPrefix(got, "hostagent: ") || strings.Contains(got, "panic:") {
				t.Errorf("stderr is not a refusal:\n%s", got)
			}
			for _, d := range []string{primary, elastic} {
				if _, err := os.Stat(filepath.Join(d, "cpuset.cpus")); err == nil {
					t.Errorf("%s/cpuset.cpus written before the policy was refused", d)
				}
			}
		})
	}
}
