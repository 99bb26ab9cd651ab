package experiments

import (
	"reflect"
	"testing"
)

// FuzzParseGrid feeds arbitrary bytes to ParseGrid. It must never panic;
// a grid it accepts must survive Marshal → ParseGrid unchanged, and every
// run id it expands to must be a safe artifact file stem. The checked-in
// corpus (testdata/fuzz/FuzzParseGrid) starts from testdata/grid.json
// and the ids that once escaped -grid-out or broke the manifest.
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
	})
}
