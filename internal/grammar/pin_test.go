package grammar_test

import (
	"fmt"
	"strings"
	"testing"

	"smartharvest/internal/core"
	"smartharvest/internal/faults"
	"smartharvest/internal/harness"
	"smartharvest/internal/hypervisor"
	"smartharvest/internal/market"
	"smartharvest/internal/sched"
	"smartharvest/internal/workload"
)

// The tables below pin every run-description grammar the CLIs and the
// experiment configs speak: what each input renders to through String
// after parsing, and which inputs are refused. They cover every fault
// key, every pool key and every enum name, plus every plan string that
// appears in README.md, the CI workflow and the package tests.

// faultPlans maps an accepted -faults input to its canonical String.
var faultPlans = []struct{ in, out string }{
	{"", "none"},
	{"   ", "none"},

	// One key at a time.
	{"hfail=0.05", "hfail=0.05"},
	{"hdelay=0.02", "hdelay=0.02"},
	{"drop=0.01", "drop=0.01"},
	{"stale=0.03", "stale=0.03"},
	{"noise=0.1", "noise=0.1"},
	{"stall=0.001", "stall=0.001"},
	{"crash=0.0005", "crash=0.0005"},
	{"scrash=0.002", "scrash=0.002"},
	{"gdrop=0.2", "gdrop=0.2"},
	{"gdelay=0.1", "gdelay=0.1"},
	{"rstale=0.3", "rstale=0.3"},
	{"rloss=0.05", "rloss=0.05"},
	{"hdelaymean=2ms", "hdelaymean=2ms"},
	{"hdelayp99=10ms", "hdelayp99=10ms"},
	{"stalldur=60ms", "stalldur=60ms"},
	{"restartdur=250ms", "restartdur=250ms"},
	{"srestartdur=500ms", "srestartdur=500ms"},
	{"gdelaydur=10ms", "gdelaydur=10ms"},
	{"losemodel=true", "losemodel=true"},

	// Zero values print nothing; the bounds are inclusive.
	{"hfail=0", "none"},
	{"rloss=0.0", "none"},
	{"stalldur=0s", "none"},
	{"losemodel=false", "none"},
	{"crash=1", "crash=1"},
	{"gdrop=1.0", "gdrop=1"},

	// Value spellings.
	{"hfail=5e-2", "hfail=0.05"},
	{"drop=.5", "drop=0.5"},
	{"noise=1e-7", "noise=1e-07"},
	{"losemodel=1", "losemodel=true"},
	{"losemodel=T", "losemodel=true"},
	{"restartdur=1500ms", "restartdur=1.5s"},
	{"srestartdur=90s", "srestartdur=1m30s"},
	{"gdelaydur=250us", "gdelaydur=250µs"},
	{"hdelaymean=1000000ns", "hdelaymean=1ms"},

	// Whitespace around pairs, repeated keys (last wins), print order.
	{"  hfail=0.1 ,  drop=0.2  ", "hfail=0.1,drop=0.2"},
	{"hfail=0.1,hfail=0.2", "hfail=0.2"},
	{"stall=0.1,crash=0.2,stalldur=5ms", "stall=0.1,crash=0.2,stalldur=5ms"},
	{"stalldur=5ms,crash=0.2,stall=0.1", "stall=0.1,crash=0.2,stalldur=5ms"},
	{"losemodel=true,gdelaydur=1ms,rloss=0.1,hfail=0.2", "hfail=0.2,rloss=0.1,gdelaydur=1ms,losemodel=true"},
	{"losemodel=true,gdelaydur=6ms,srestartdur=5ms,restartdur=4ms,stalldur=3ms,hdelayp99=2ms,hdelaymean=1ms," +
		"rloss=0.12,rstale=0.11,gdelay=0.1,gdrop=0.09,scrash=0.08,crash=0.07,stall=0.06,noise=0.05,stale=0.04,drop=0.03,hdelay=0.02,hfail=0.01",
		"hfail=0.01,hdelay=0.02,drop=0.03,stale=0.04,noise=0.05,stall=0.06,crash=0.07,scrash=0.08,gdrop=0.09,gdelay=0.1,rstale=0.11,rloss=0.12," +
			"hdelaymean=1ms,hdelayp99=2ms,stalldur=3ms,restartdur=4ms,srestartdur=5ms,gdelaydur=6ms,losemodel=true"},

	// README.md and the CI workflow.
	{"hfail=0.05,hdelay=0.02,drop=0.002,stall=0.005", "hfail=0.05,hdelay=0.02,drop=0.002,stall=0.005"},
	{"hfail=1", "hfail=1"},
	{"crash=0.01,restartdur=250ms,losemodel=true", "crash=0.01,restartdur=250ms,losemodel=true"},
	{"drop=0.01,stall=0.001", "drop=0.01,stall=0.001"},
	{"drop=0.01,stall=0.002", "drop=0.01,stall=0.002"},
	{"scrash=0.004,gdrop=0.3,rstale=0.2", "scrash=0.004,gdrop=0.3,rstale=0.2"},
	{"scrash=0.004,gdrop=0.3,rstale=0.2,rloss=0.1", "scrash=0.004,gdrop=0.3,rstale=0.2,rloss=0.1"},
	{"scrash=0.01", "scrash=0.01"},
	{"hfail=0.2,hdelay=0.1,drop=0.002,stale=0.002,noise=0.01,stall=0.01,crash=0.005",
		"hfail=0.2,hdelay=0.1,drop=0.002,stale=0.002,noise=0.01,stall=0.01,crash=0.005"},
	{"crash=0.05,stall=0.05,losemodel=true", "stall=0.05,crash=0.05,losemodel=true"},

	// The package tests.
	{"hfail=0.05,hdelay=0.02,drop=0.01,stale=0.03,noise=0.1,stall=0.001,crash=0.0005," +
		"hdelaymean=2ms,hdelayp99=10ms,stalldur=60ms,restartdur=250ms,losemodel=true",
		"hfail=0.05,hdelay=0.02,drop=0.01,stale=0.03,noise=0.1,stall=0.001,crash=0.0005," +
			"hdelaymean=2ms,hdelayp99=10ms,stalldur=60ms,restartdur=250ms,losemodel=true"},
	{"scrash=0.002,gdrop=0.05,gdelay=0.1,rstale=0.03,rloss=0.01,srestartdur=500ms,gdelaydur=10ms",
		"scrash=0.002,gdrop=0.05,gdelay=0.1,rstale=0.03,rloss=0.01,srestartdur=500ms,gdelaydur=10ms"},
	{"crash=0.01,scrash=0.001,gdrop=0.2", "crash=0.01,scrash=0.001,gdrop=0.2"},
	{"gdrop=0.5,rstale=0.5,rloss=0.5", "gdrop=0.5,rstale=0.5,rloss=0.5"},
	{"scrash=0.006,srestartdur=400ms,gdrop=0.7,rloss=0.3,rstale=0.2", "scrash=0.006,gdrop=0.7,rstale=0.2,rloss=0.3,srestartdur=400ms"},
	{"scrash=0.01,srestartdur=200ms", "scrash=0.01,srestartdur=200ms"},
	{"scrash=0.02,srestartdur=300ms", "scrash=0.02,srestartdur=300ms"},
	{"hfail=0.05,drop=0.01", "hfail=0.05,drop=0.01"},
	{"stall=0.001,stalldur=60ms", "stall=0.001,stalldur=60ms"},
	{"gdrop=0.2,gdelay=0.1,gdelaydur=5ms", "gdrop=0.2,gdelay=0.1,gdelaydur=5ms"},
	{"rstale=0.1,rloss=0.05", "rstale=0.1,rloss=0.05"},
	{"hfail=0.02,stale=0.01,scrash=0.001,gdrop=0.25,rstale=0.3,rloss=0.1", "hfail=0.02,stale=0.01,scrash=0.001,gdrop=0.25,rstale=0.3,rloss=0.1"},
	{"hfail=0.05,hdelay=0.02,hdelaymean=2ms,hdelayp99=10ms", "hfail=0.05,hdelay=0.02,hdelaymean=2ms,hdelayp99=10ms"},
	{"scrash=0.004,srestartdur=400ms", "scrash=0.004,srestartdur=400ms"},
	{"drop=0.01,scrash=0.002,gdrop=0.2,rstale=0.1,rloss=0.05", "drop=0.01,scrash=0.002,gdrop=0.2,rstale=0.1,rloss=0.05"},
}

// faultProbKeys and faultDurKeys are the numeric fault keys; each is
// also pinned against the out-of-range and malformed values below.
var (
	faultProbKeys = []string{"hfail", "hdelay", "drop", "stale", "noise", "stall", "crash",
		"scrash", "gdrop", "gdelay", "rstale", "rloss"}
	faultDurKeys = []string{"hdelaymean", "hdelayp99", "stalldur", "restartdur", "srestartdur", "gdelaydur"}
)

// faultRejects are -faults inputs that must not parse.
func faultRejects() []string {
	bad := []string{
		"nope=1", "HFAIL=0.1", "hfail", "hfail=", "=0.5", "hfail =0.1", "hfail= 0.1",
		"hfail=0.1,,", "hfail=0.1,", ",hfail=0.1", "gdelay==0.1", "hfail=0.1;drop=0.1",
		"hfail=1e400", "losemodel=perhaps", "losemodel=", "losemodel=yes",
		"scrash", "scrash=abc", "srestartdur=5", "gdelaydur=xyz", "scrash 0.1", "gdrop=0.1,",
	}
	for _, k := range faultProbKeys {
		bad = append(bad, k+"=1.01", k+"=-0.1", k+"=x", k+"=", k+"=Inf", k+"=+Inf", k+"=-Inf", k+"=50%")
	}
	for _, k := range faultDurKeys {
		bad = append(bad, k+"=-1ms", k+"=5", k+"=x", k+"=", k+"=1 ms")
	}
	return bad
}

// poolPlans maps an accepted -pools input to its canonical String.
var poolPlans = []struct{ in, out string }{
	{"", "none"},
	{" ; ", "none"},

	// Every key and tier.
	{"name=a,tier=spot,reserved=1", "name=a,tier=spot,reserved=1"},
	{"name=a,tier=standard,reserved=2", "name=a,tier=standard,reserved=2"},
	{"name=a,tier=premium,reserved=3", "name=a,tier=premium,reserved=3"},
	{"name=a,reserved=1", "name=a,tier=spot,reserved=1"},
	{"name=a,tier=standard,reserved=4,size=40s,price=0.5,at=3s", "name=a,tier=standard,reserved=4,size=40s,price=0.5,at=3s"},
	{"at=3s,price=0.5,size=40s,reserved=4,tier=standard,name=a", "name=a,tier=standard,reserved=4,size=40s,price=0.5,at=3s"},
	{"overcommit=1.5", "overcommit=1.5"},
	{"overcommit=0", "none"},
	{"name=a,reserved=1,size=0s,price=0,at=0s", "name=a,tier=spot,reserved=1"},

	// Value spellings.
	{"name=a,reserved=1,size=600s", "name=a,tier=spot,reserved=1,size=10m0s"},
	{"name=a,reserved=1,at=1500ms", "name=a,tier=spot,reserved=1,at=1.5s"},
	{"name=a,reserved=1,price=5e-1", "name=a,tier=spot,reserved=1,price=0.5"},
	{"name=a,reserved=+4", "name=a,tier=spot,reserved=4"},
	{"name=a,reserved=04", "name=a,tier=spot,reserved=4"},
	{"overcommit=3.0", "overcommit=3"},

	// Segments: overcommit anywhere, empty segments, whitespace,
	// repeated keys (last wins).
	{"overcommit=2,name=a,reserved=1", "overcommit=2;name=a,tier=spot,reserved=1"},
	{"name=a,reserved=1;overcommit=3", "overcommit=3;name=a,tier=spot,reserved=1"},
	{"name=a,reserved=1;;name=b,reserved=2;", "name=a,tier=spot,reserved=1;name=b,tier=spot,reserved=2"},
	{" name=a , reserved=1 ; name=b,reserved=2 ", "name=a,tier=spot,reserved=1;name=b,tier=spot,reserved=2"},
	{"overcommit=1,overcommit=2", "overcommit=2"},
	{"name=a,reserved=1,name=b", "name=b,tier=spot,reserved=1"},

	// README.md, the CI workflow, the experiments and the benchmark.
	{"overcommit=2;name=acme,tier=standard,reserved=8", "overcommit=2;name=acme,tier=standard,reserved=8"},
	{"overcommit=2;name=acme,tier=standard,reserved=8;name=burst,tier=spot,reserved=16,price=0.5",
		"overcommit=2;name=acme,tier=standard,reserved=8;name=burst,tier=spot,reserved=16,price=0.5"},
	{"name=acme,tier=spot,reserved=2", "name=acme,tier=spot,reserved=2"},
	{"overcommit=1.5;name=acme,tier=standard,reserved=4", "overcommit=1.5;name=acme,tier=standard,reserved=4"},
	{"overcommit=1.5;name=acme,tier=standard,reserved=4,price=2", "overcommit=1.5;name=acme,tier=standard,reserved=4,price=2"},
	{"name=s1,tier=spot,reserved=40,price=0.5;name=m1,tier=standard,reserved=10;name=p1,tier=premium,reserved=5,price=2",
		"name=s1,tier=spot,reserved=40,price=0.5;name=m1,tier=standard,reserved=10;name=p1,tier=premium,reserved=5,price=2"},
	{"name=s1,tier=spot,reserved=20,price=0.5;name=m1,tier=standard,reserved=20;name=p1,tier=premium,reserved=24,price=2",
		"name=s1,tier=spot,reserved=20,price=0.5;name=m1,tier=standard,reserved=20;name=p1,tier=premium,reserved=24,price=2"},
	{"name=s1,tier=spot,reserved=10,price=0.5;name=m1,tier=standard,reserved=48;name=p1,tier=premium,reserved=32,price=2",
		"name=s1,tier=spot,reserved=10,price=0.5;name=m1,tier=standard,reserved=48;name=p1,tier=premium,reserved=32,price=2"},
	{"name=s1,tier=spot,reserved=40,price=0.5;name=m1,tier=standard,reserved=40;name=p1,tier=premium,reserved=48,price=2",
		"name=s1,tier=spot,reserved=40,price=0.5;name=m1,tier=standard,reserved=40;name=p1,tier=premium,reserved=48,price=2"},

	// The package tests.
	{"name=a,tier=spot,reserved=4", "name=a,tier=spot,reserved=4"},
	{"overcommit=2;name=a,tier=spot,reserved=4,size=40s,price=0.5", "overcommit=2;name=a,tier=spot,reserved=4,size=40s,price=0.5"},
	{"name=a,tier=standard,reserved=2,at=3s;name=b,tier=premium,reserved=1,price=4", "name=a,tier=standard,reserved=2,at=3s;name=b,tier=premium,reserved=1,price=4"},
	{"name=a,tier=spot,reserved=2;name=b,tier=premium,reserved=1,size=90s,at=3s", "name=a,tier=spot,reserved=2;name=b,tier=premium,reserved=1,size=1m30s,at=3s"},
	{"overcommit=2", "overcommit=2"},
	{"name=big,tier=standard,reserved=16,size=10m,price=0.5,at=1.5s", "name=big,tier=standard,reserved=16,size=10m0s,price=0.5,at=1.5s"},
	{"name=s,tier=spot,reserved=4;name=p,tier=premium,reserved=1", "name=s,tier=spot,reserved=4;name=p,tier=premium,reserved=1"},
	{"name=s,tier=spot,reserved=8;name=m,tier=standard,reserved=4;name=p,tier=premium,reserved=2", "name=s,tier=spot,reserved=8;name=m,tier=standard,reserved=4;name=p,tier=premium,reserved=2"},
	{"overcommit=1.5;name=s1,tier=spot,reserved=10;name=s2,tier=spot,reserved=21;name=p,tier=premium,reserved=8", "overcommit=1.5;name=s1,tier=spot,reserved=10;name=s2,tier=spot,reserved=21;name=p,tier=premium,reserved=8"},
	{"overcommit=10;name=a,tier=spot,reserved=3,size=10s;name=b,tier=spot,reserved=1,size=10s", "overcommit=10;name=a,tier=spot,reserved=3,size=10s;name=b,tier=spot,reserved=1,size=10s"},
	{"overcommit=10;name=big,tier=spot,reserved=9;name=small,tier=spot,reserved=1", "overcommit=10;name=big,tier=spot,reserved=9;name=small,tier=spot,reserved=1"},
	{"overcommit=10;name=p,tier=premium,reserved=1,price=2", "overcommit=10;name=p,tier=premium,reserved=1,price=2"},
}

// poolRejects are -pools inputs that must not parse.
var poolRejects = []string{
	"bogus=1", "name=a", "name=a;", "tier=spot,reserved=4", "name=,tier=spot,reserved=1",
	"name=a,tier=gold,reserved=1", "name=a,tier=Spot,reserved=1", "name=a,tier=,reserved=1",
	"name=a,tier=spot,reserved=0", "name=a,tier=spot,reserved=-2", "name=a,tier=spot reserved=2",
	"name=a,tier=spot,reserved=two", "name=a,reserved=1.5", "name=a,reserved=99999999999999999999",
	"name=a,tier=spot,reserved=1,size=5", "name=a,reserved=4,size=-3s",
	"name=a,tier=spot,reserved=1,at=-1s", "name=a,reserved=1,at=x",
	"name=a,reserved=4,price=-1", "name=a,reserved=1,price=-Inf", "name=a,reserved=1,price=x",
	"overcommit=nope", "overcommit=-1", "overcommit=-0.1", "overcommit=", "overcommit=-Inf",
	"overcommit=-1;name=a,reserved=4", "name=a,reserved=4;name=a,reserved=2",
	"name=a,tier=spot,reserved=1;name=a,tier=spot,reserved=1",
	"name=a,reserved=4,flavor=large", "name=a,reserved=4,size", "name=a b,reserved=4",
	"name=a,,reserved=1", "name=a=b,reserved=1", "name=a,reserved=1,",
}

// enumPin is one enum's vocabulary: every name parses and renders back
// to itself, the rejects do not parse, and the listed out-of-range
// values render as pinned.
type enumPin struct {
	name    string
	parse   func(string) (fmt.Stringer, error)
	names   []string
	rejects []string
	render  map[fmt.Stringer]string
}

func wrap[E fmt.Stringer](parse func(string) (E, error)) func(string) (fmt.Stringer, error) {
	return func(s string) (fmt.Stringer, error) { return parse(s) }
}

var enumPins = []enumPin{
	{"BatchKind", wrap(harness.ParseBatchKind), []string{"cpubully", "hdinsight", "terasort", "finite", "none"},
		[]string{"", "nope", "CPUBully", "cpubully "}, map[fmt.Stringer]string{harness.BatchKind(99): "BatchKind(99)", harness.BatchKind(-1): "BatchKind(-1)"}},
	{"PredictorKind", wrap(harness.ParsePredictor), []string{"csoaa", "adagrad", "ewma", "periodic", "mlp", "ensemble"},
		[]string{"", "nope", "CSOAA", " ewma"}, map[fmt.Stringer]string{harness.PredictorKind(99): "PredictorKind(99)"}},
	{"Mechanism", wrap(hypervisor.ParseMechanism), []string{"cpugroups", "ipis"},
		[]string{"", "ipi", "IPIs", "cpugroup"}, map[fmt.Stringer]string{hypervisor.Mechanism(7): "Mechanism(7)"}},
	{"SafeguardMode", wrap(core.ParseSafeguardMode), []string{"conservative", "aggressive"},
		[]string{"", "Aggressive", "none"}, nil},
	{"Class", wrap(workload.ParseClass), []string{"flat", "periodic", "bursty", "mixed"},
		[]string{"", "diurnal", "FLAT", "bursty,flat", "random"}, map[fmt.Stringer]string{workload.Class(99): "Class(99)", workload.Class(-1): "Class(-1)"}},
	{"Policy", wrap(sched.ParsePolicy), []string{"first-fit", "best-fit", "predicted"},
		[]string{"", "firstfit", "unknown", "Predicted"}, map[fmt.Stringer]string{sched.Policy(99): "unknown", sched.Policy(-1): "unknown"}},
	{"Tier", wrap(market.ParseTier), []string{"spot", "standard", "premium"},
		[]string{"", "platinum", "unknown", "Spot"}, map[fmt.Stringer]string{market.Tier(3): "unknown", market.Tier(99): "unknown"}},
}

func TestPinFaultPlans(t *testing.T) {
	for _, c := range faultPlans {
		p, err := faults.ParsePlan(c.in)
		if err != nil {
			t.Errorf("ParsePlan(%q): %v", c.in, err)
			continue
		}
		if got := p.String(); got != c.out {
			t.Errorf("ParsePlan(%q).String() = %q, want %q", c.in, got, c.out)
		}
	}
	for _, in := range faultRejects() {
		if p, err := faults.ParsePlan(in); err == nil {
			t.Errorf("ParsePlan(%q) accepted as %q", in, p)
		}
	}
}

func TestPinPoolPlans(t *testing.T) {
	for _, c := range poolPlans {
		p, err := market.ParsePools(c.in)
		if err != nil {
			t.Errorf("ParsePools(%q): %v", c.in, err)
			continue
		}
		if got := p.String(); got != c.out {
			t.Errorf("ParsePools(%q).String() = %q, want %q", c.in, got, c.out)
		}
	}
	for _, in := range poolRejects {
		if p, err := market.ParsePools(in); err == nil {
			t.Errorf("ParsePools(%q) accepted as %q", in, p)
		}
	}
}

func TestPinEnums(t *testing.T) {
	for _, e := range enumPins {
		for _, name := range e.names {
			v, err := e.parse(name)
			if err != nil {
				t.Errorf("%s: parse %q: %v", e.name, name, err)
				continue
			}
			if got := v.String(); got != name {
				t.Errorf("%s: parse %q renders %q", e.name, name, got)
			}
			if m, ok := v.(interface{ MarshalText() ([]byte, error) }); ok {
				if b, err := m.MarshalText(); err != nil || string(b) != name {
					t.Errorf("%s: %q marshals to %q, %v", e.name, name, b, err)
				}
			}
		}
		for _, in := range e.rejects {
			if v, err := e.parse(in); err == nil {
				t.Errorf("%s: parse %q accepted as %v", e.name, in, v)
			}
		}
		for v, want := range e.render {
			if got := v.String(); got != want {
				t.Errorf("%s: out-of-range value renders %q, want %q", e.name, got, want)
			}
			if m, ok := v.(interface{ MarshalText() ([]byte, error) }); ok {
				if b, err := m.MarshalText(); err == nil {
					t.Errorf("%s: out-of-range value %q marshals to %q", e.name, want, b)
				}
			}
		}
	}
}

// TestPinEnumListsInErrors pins that a refused enum name is answered
// with the vocabulary, so a user sees what to type.
func TestPinEnumListsInErrors(t *testing.T) {
	for _, e := range enumPins {
		_, err := e.parse("nope")
		if err == nil {
			t.Fatalf("%s: parse %q accepted", e.name, "nope")
		}
		for _, name := range e.names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("%s: error %q does not name %q", e.name, err, name)
			}
		}
	}
}
