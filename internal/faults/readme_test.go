package faults

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestREADMEFaultKeys keeps README.md's -faults documentation in step
// with Plan's tags: the key table under "Chaos testing" lists every
// declared key, in declaration order, and nothing else; and every
// -faults example anywhere in README uses declared keys only.
func TestREADMEFaultKeys(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "\n## Chaos testing")
	end := strings.Index(doc, "\n## Predictor zoo")
	if start < 0 || end < start {
		t.Fatal("README.md has no \"Chaos testing\" section followed by \"Predictor zoo\"")
	}
	var table []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([a-z0-9]+)` \\|").FindAllStringSubmatch(doc[start:end], -1) {
		table = append(table, m[1])
	}
	if got, want := strings.Join(table, ","), strings.Join(Keys(""), ","); got != want {
		t.Errorf("README key table lists\n  %s\nPlan declares\n  %s", got, want)
	}
	declared := map[string]bool{}
	for _, k := range Keys("") {
		declared[k] = true
	}
	examples := regexp.MustCompile(`-faults '?([^\s']+)`).FindAllStringSubmatch(doc, -1)
	if len(examples) == 0 {
		t.Fatal("README has no -faults examples")
	}
	for _, m := range examples {
		for _, kv := range strings.Split(m[1], ",") {
			if k, _, ok := strings.Cut(kv, "="); ok && !declared[k] {
				t.Errorf("README example -faults %s uses undeclared key %q", m[1], k)
			}
		}
	}
}
