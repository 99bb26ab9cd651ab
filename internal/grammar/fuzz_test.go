package grammar_test

import (
	"reflect"
	"testing"

	"smartharvest/internal/faults"
	"smartharvest/internal/market"
	"smartharvest/internal/sim"
	"smartharvest/internal/simrng"
)

// FuzzGrammars drives every run-description grammar with arbitrary
// text: which picks the fault plan (0), the pool plan (1) or one of the
// enums (2 on, in enumPins order). Whatever a parser accepts must print
// to a string that parses back to the same value (parse → String →
// parse is a fixpoint), and must pass the consumer's own validation.
func FuzzGrammars(f *testing.F) {
	for _, c := range faultPlans {
		f.Add(uint8(0), c.in)
	}
	for _, in := range faultRejects() {
		f.Add(uint8(0), in)
	}
	for _, c := range poolPlans {
		f.Add(uint8(1), c.in)
	}
	for _, in := range poolRejects {
		f.Add(uint8(1), in)
	}
	for i, e := range enumPins {
		for _, in := range append(e.names, e.rejects...) {
			f.Add(uint8(2+i), in)
		}
	}
	// Inputs that were accepted before non-finite numbers and non-UTF-8
	// pool names were refused, and the "none" rendering that did not
	// parse back.
	for _, in := range []string{"hfail=NaN", "drop=nan", "none", " none "} {
		f.Add(uint8(0), in)
	}
	for _, in := range []string{"overcommit=NaN;name=a,tier=premium,reserved=400", "overcommit=+Inf",
		"name=a,tier=spot,reserved=1,price=NaN", "none", "name=a\xffb,tier=spot,reserved=2"} {
		f.Add(uint8(1), in)
	}

	now := func() sim.Time { return 0 }
	f.Fuzz(func(t *testing.T, which uint8, s string) {
		switch which = which % uint8(2+len(enumPins)); which {
		case 0:
			p, err := faults.ParsePlan(s)
			if err != nil {
				return
			}
			back, err := faults.ParsePlan(p.String())
			if err != nil || back != p {
				t.Fatalf("ParsePlan(%q) = %q does not parse back: %+v, %v", s, p, back, err)
			}
			if _, err := faults.NewInjector(p, simrng.New(1), now, nil); err != nil {
				t.Fatalf("ParsePlan(%q) accepted a plan NewInjector refuses: %v", s, err)
			}
			if _, err := faults.NewFleetInjector(p, simrng.New(1), now, nil); err != nil {
				t.Fatalf("ParsePlan(%q) accepted a plan NewFleetInjector refuses: %v", s, err)
			}
		case 1:
			c, err := market.ParsePools(s)
			if err != nil {
				return
			}
			back, err := market.ParsePools(c.String())
			if err != nil || !reflect.DeepEqual(back, c) {
				t.Fatalf("ParsePools(%q) = %q does not parse back: %+v, %v", s, c, back, err)
			}
			if _, err := market.NewLedger(c, 1, now, nil); err != nil {
				t.Fatalf("ParsePools(%q) accepted a config NewLedger refuses: %v", s, err)
			}
		default:
			e := enumPins[which-2]
			v, err := e.parse(s)
			if err != nil {
				return
			}
			if back, err := e.parse(v.String()); err != nil || back != v {
				t.Fatalf("%s: %q parses to %v, which does not parse back: %v, %v", e.name, s, v, back, err)
			}
			if m, ok := v.(interface{ MarshalText() ([]byte, error) }); ok {
				if _, err := m.MarshalText(); err != nil {
					t.Fatalf("%s: %q parses to %v, which does not marshal: %v", e.name, s, v, err)
				}
			}
		}
	})
}
