package experiments

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDesignExperimentIndex keeps DESIGN.md §4, the per-experiment index,
// in step with the registry: every ID All() registers must appear there
// in backticks, and every backticked lowercase ID there must be
// registered.
func TestDesignExperimentIndex(t *testing.T) {
	data, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	start := strings.Index(doc, "\n## 4. ")
	end := strings.Index(doc, "\n## 5. ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §4 followed by §5")
	}
	named := map[string]bool{}
	for _, m := range regexp.MustCompile("`([a-z][a-z0-9-]*)`").FindAllStringSubmatch(doc[start:end], -1) {
		named[m[1]] = true
	}
	for _, e := range All() {
		if !named[e.ID] {
			t.Errorf("DESIGN.md §4 does not list registered experiment %q", e.ID)
		}
		delete(named, e.ID)
	}
	for id := range named {
		t.Errorf("DESIGN.md §4 names %q, which is not a registered experiment", id)
	}
}
