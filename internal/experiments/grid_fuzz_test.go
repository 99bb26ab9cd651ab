package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseGrid feeds arbitrary bytes to ParseGrid. It must never panic;
// a grid it accepts must survive Marshal → ParseGrid unchanged, both as a
// Grid and as the runs it expands to, and every run id it expands to
// must be a safe artifact file stem. A key a run spells overrides the
// default, its zero value too: the grid expands as it does with the
// defaults written into each run object ahead of the run's own keys.
// The checked-in corpus (testdata/fuzz/FuzzParseGrid) starts from
// testdata/grid.json, the ids that once escaped -grid-out or broke the
// manifest, and the values whose decoding is easy to get wrong: zero
// overrides ("csoaa", "flat", false), a "0s" warmup, "none" and
// "1500ms".
func FuzzParseGrid(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ParseGrid(data)
		if err != nil {
			return
		}
		out, err := g.Marshal()
		if err != nil {
			t.Fatalf("Marshal of an accepted grid: %v", err)
		}
		g2, err := ParseGrid(out)
		if err != nil {
			t.Fatalf("ParseGrid(Marshal(g)) rejected its own output: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(g, g2) {
			t.Fatalf("ParseGrid(Marshal(g)) != g:\n%+v\nvs\n%+v", g, g2)
		}
		runs, err := g.Expand()
		if err != nil {
			t.Fatalf("Expand failed on a grid ParseGrid accepted: %v", err)
		}
		for _, r := range runs {
			if !safeStem(r.ID) {
				t.Fatalf("expanded run id %q is not a safe file stem", r.ID)
			}
		}
		sameRuns(t, "ParseGrid(Marshal(g))", g2, runs)
		inlined := &Grid{Schema: g.Schema}
		for _, obj := range g.Runs {
			inlined.Runs = append(inlined.Runs, inline(g.Defaults, obj))
		}
		sameRuns(t, "g with its defaults inlined", inlined, runs)
	})
}

// sameRuns fails t unless g expands to want.
func sameRuns(t *testing.T, what string, g *Grid, want []ResolvedRun) {
	t.Helper()
	got, err := g.Expand()
	if err != nil {
		t.Fatalf("%s: Expand: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s expands to\n%+v\nnot\n%+v", what, got, want)
	}
}

// inline writes one object holding the defaults' members, an empty id
// (defaults name no run) and then the run's members, so that decoding
// it lets every key the run spells win.
func inline(defaults, run json.RawMessage) json.RawMessage {
	members := [][]byte{[]byte(`"id":""`)}
	if obj := bytes.TrimSpace(defaults); len(obj) > 2 && obj[0] == '{' {
		members = append([][]byte{obj[1 : len(obj)-1]}, members...)
	}
	if obj := bytes.TrimSpace(run); len(obj) > 2 && obj[0] == '{' {
		members = append(members, obj[1:len(obj)-1])
	}
	return append(append([]byte("{"), bytes.Join(members, []byte(","))...), '}')
}
