package check_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartharvest/internal/apps"
	"smartharvest/internal/check"
	"smartharvest/internal/harness"
	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
)

// realTrace runs a short scenario with a JSONL sink (polls included, so
// every event kind's encoder is exercised) and returns the trace bytes.
func realTrace(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := obs.NewJSONL(&buf)
	_, err := harness.Run(harness.Scenario{
		Name:              "trace-validate",
		Primaries:         []apps.PrimarySpec{apps.Memcached(40000)},
		Duration:          500 * sim.Millisecond,
		Warmup:            100 * sim.Millisecond,
		Seed:              1,
		LongTermSafeguard: true,
		Observer:          sink,
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return buf.Bytes()
}

func TestValidateTraceCleanRun(t *testing.T) {
	trace := realTrace(t)
	errs, err := check.ValidateTrace(bytes.NewReader(trace))
	if err != nil {
		t.Fatalf("ValidateTrace: %v", err)
	}
	if len(errs) != 0 {
		t.Fatalf("clean trace flagged: %v", errs[:min(len(errs), 5)])
	}
}

func TestValidateTraceCorruptions(t *testing.T) {
	cases := []struct {
		name string
		line string
		want string // substring of the expected error detail
	}{
		{"not json", `garbage`, "not a JSON object"},
		{"missing version", `{"ev":"resize","t":1,"from":10,"to":5,"mech":"cpugroups","latency":1}`, `"v"`},
		{"wrong version", `{"v":99,"ev":"resize","t":1,"from":10,"to":5,"mech":"cpugroups","latency":1}`, "schema version"},
		{"unknown event", `{"v":1,"ev":"teleport","t":1}`, "unknown event"},
		{"missing timestamp", `{"v":1,"ev":"qos-resume"}`, `"t"`},
		{"negative timestamp", `{"v":1,"ev":"qos-resume","t":-5}`, "negative timestamp"},
		{"missing field", `{"v":1,"ev":"resize","t":1,"from":10,"mech":"cpugroups","latency":1}`, `missing "to"`},
		{"wrong field type", `{"v":1,"ev":"resize","t":1,"from":"ten","to":5,"mech":"cpugroups","latency":1}`, "wrong JSON type"},
		{"unknown field", `{"v":1,"ev":"qos-resume","t":1,"bonus":1}`, "unknown field"},
		{"bad clamp", `{"v":1,"ev":"window","t":1,"seq":1,"samples":1,"min":0,"peak":0,"avg":0,"std":0,"median":0,"peak1s":0,"busy":0,"safeguard":false,"pred":1,"target":1,"clamp":"vibes"}`, "unknown clamp"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs, err := check.ValidateTrace(strings.NewReader(tc.line + "\n"))
			if err != nil {
				t.Fatalf("ValidateTrace: %v", err)
			}
			if len(errs) == 0 {
				t.Fatalf("corrupt line accepted: %s", tc.line)
			}
			found := false
			for _, e := range errs {
				if strings.Contains(e.Detail, tc.want) {
					found = true
				}
				if e.Line != 1 {
					t.Fatalf("error on line %d, want 1: %s", e.Line, e)
				}
			}
			if !found {
				t.Fatalf("no error mentions %q: %v", tc.want, errs)
			}
		})
	}
}

// TestValidateTraceStrict: lines a JSON walk with loose types used to
// accept, none of which the encoder can write.
func TestValidateTraceStrict(t *testing.T) {
	const resize = `{"v":1,"ev":"resize","t":1,"from":10,"to":5,"mech":"cpugroups","latency":1}`
	for _, tc := range []struct{ name, line, want string }{
		{"null in int", strings.Replace(resize, `"to":5`, `"to":null`, 1), `"to" is null`},
		{"fraction in int", strings.Replace(resize, `"to":5`, `"to":1.5`, 1), `"to" has the wrong JSON type`},
		{"0xff in string", strings.Replace(resize, "cpugroups", "cpu\xffgroups", 1), "UTF-8"},
	} {
		errs, err := check.ValidateTrace(strings.NewReader(tc.line + "\n"))
		if err != nil {
			t.Fatalf("ValidateTrace: %v", err)
		}
		if len(errs) != 1 || errs[0].Line != 1 || !strings.Contains(errs[0].Detail, tc.want) {
			t.Errorf("%s: got %v, want one error on line 1 mentioning %s", tc.name, errs, tc.want)
		}
	}
}

func TestValidateTraceEventOrdering(t *testing.T) {
	trace := `{"v":1,"ev":"qos-resume","t":100}
{"v":1,"ev":"qos-resume","t":50}
`
	errs, err := check.ValidateTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatalf("ValidateTrace: %v", err)
	}
	if len(errs) != 1 || errs[0].Line != 2 || !strings.Contains(errs[0].Detail, "precedes") {
		t.Fatalf("ordering violation not flagged on line 2: %v", errs)
	}
}

func TestValidateTraceMutatedRealTrace(t *testing.T) {
	trace := realTrace(t)
	lines := bytes.Split(bytes.TrimRight(trace, "\n"), []byte("\n"))
	if len(lines) < 10 {
		t.Fatalf("trace too short to mutate: %d lines", len(lines))
	}
	// Corrupt one mid-trace line: strip its closing brace.
	i := len(lines) / 2
	lines[i] = lines[i][:len(lines[i])-1]
	errs, err := check.ValidateTrace(bytes.NewReader(bytes.Join(lines, []byte("\n"))))
	if err != nil {
		t.Fatalf("ValidateTrace: %v", err)
	}
	if len(errs) == 0 {
		t.Fatal("truncated line accepted")
	}
	if errs[0].Line != i+1 {
		t.Fatalf("error on line %d, want %d", errs[0].Line, i+1)
	}
}

func TestValidateTraceErrorCap(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 300; i++ {
		b.WriteString("garbage\n")
	}
	errs, err := check.ValidateTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("ValidateTrace: %v", err)
	}
	if len(errs) != 100 {
		t.Fatalf("got %d errors, want the 100 cap", len(errs))
	}
}

// TestValidateTraceFixtures: every committed JSONL fixture — the harness
// trace golden and the three scheduler goldens — is a well-formed trace.
func TestValidateTraceFixtures(t *testing.T) {
	paths, err := filepath.Glob("../sched/testdata/*.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, "../harness/testdata/golden-trace.jsonl")
	if len(paths) != 4 {
		t.Fatalf("found %d trace fixtures, want 4: %v", len(paths), paths)
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		errs, err := check.ValidateTrace(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if len(errs) != 0 {
			t.Errorf("%s: %d problems, first %s", path, len(errs), errs[0])
		}
	}
}
