package obs

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smartharvest/internal/sim"
)

// encodeLine returns r's trace line, without its newline.
func encodeLine(t testing.TB, r *Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	j := NewJSONL(&buf)
	j.Observe(r)
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// traceFixtures are the committed JSONL traces: the harness trace golden
// and the scheduler goldens.
func traceFixtures(t testing.TB) []string {
	paths, err := filepath.Glob("../sched/testdata/*.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	return append(paths, "../harness/testdata/golden-trace.jsonl")
}

// TestDecodeFixtures: every line of every committed trace decodes, and
// Dispatching the decoded records into a fresh JSONL writes the file
// back byte for byte.
func TestDecodeFixtures(t *testing.T) {
	paths := traceFixtures(t)
	if len(paths) != 4 {
		t.Fatalf("found %d trace fixtures, want 4: %v", len(paths), paths)
	}
	for _, path := range paths {
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		sc := bufio.NewScanner(bytes.NewReader(want))
		for line := 1; sc.Scan(); line++ {
			var r Record
			if err := Decode(sc.Bytes(), &r); err != nil {
				t.Fatalf("%s:%d: %v", path, line, err)
			}
			Dispatch(j, &r)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s does not re-encode byte for byte", path)
		}
	}
}

// TestDecodeRefuses: every line the encoder could not have written is
// refused, with a detail naming the problem.
func TestDecodeRefuses(t *testing.T) {
	const resize = `{"v":1,"ev":"resize","t":1,"from":10,"to":5,"mech":"cpugroups","latency":1}`
	for _, tc := range []struct{ name, line, want string }{
		{"not utf-8", strings.Replace(resize, "cpugroups", "cpu\xffgroups", 1), "UTF-8"},
		{"not an object", `[1]`, "not a JSON object"},
		{"trailing bytes", resize + `x`, "not a JSON object"},
		{"version", strings.Replace(resize, `"v":1`, `"v":2`, 1), "schema version 2"},
		{"version type", strings.Replace(resize, `"v":1`, `"v":"1"`, 1), `"v" has the wrong JSON type`},
		{"event", `{"v":1,"ev":"teleport","t":1}`, `unknown event "teleport"`},
		{"missing", strings.Replace(resize, `"to":5,`, "", 1), `missing "to"`},
		{"extra", strings.Replace(resize, `"to":5,`, `"to":5,"zz":1,"aa":1,`, 1), `unknown field "aa"`},
		{"null int", strings.Replace(resize, `"to":5`, `"to":null`, 1), `"to" is null`},
		{"spaced null", strings.Replace(resize, `"to":5`, `"to": null `, 1), `"to" is null`},
		{"null string", strings.Replace(resize, `"cpugroups"`, `null`, 1), `"mech" is null`},
		{"null time", strings.Replace(resize, `"t":1`, `"t":null`, 1), `"t" is null`},
		{"fraction in int", strings.Replace(resize, `"to":5`, `"to":1.5`, 1), `"to" has the wrong JSON type`},
		{"exponent in int", strings.Replace(resize, `"to":5`, `"to":5e0`, 1), `"to" has the wrong JSON type`},
		{"int overflow", strings.Replace(resize, `"latency":1`, `"latency":9223372036854775808`, 1), `"latency" has the wrong JSON type`},
		{"negative seq", `{"v":1,"ev":"window","t":1,"seq":-1,"samples":1,"min":0,"peak":0,"avg":0,"std":0,"median":0,"peak1s":0,"busy":0,"safeguard":false,"pred":1,"target":1,"clamp":"none"}`, `"seq" has the wrong JSON type`},
		{"string in int", strings.Replace(resize, `"to":5`, `"to":"5"`, 1), `"to" has the wrong JSON type`},
		{"enum name", `{"v":1,"ev":"fault","t":1,"kind":"meteor","dur":0,"delta":0}`, `unknown kind "meteor"`},
		{"enum unknown", `{"v":1,"ev":"degraded-enter","t":1,"reason":"unknown","failures":0,"missed_polls":0}`, `unknown reason "unknown"`},
		{"enum type", `{"v":1,"ev":"fault","t":1,"kind":2,"dur":0,"delta":0}`, `"kind" has the wrong JSON type`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r Record
			err := Decode([]byte(tc.line), &r)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode(%s) = %v, want an error mentioning %s", tc.line, err, tc.want)
			}
		})
	}
}

// draws hands out the fuzzer's bytes as uint64s, zero once they run out.
type draws []byte

func (d *draws) u64() uint64 {
	var b [8]byte
	n := copy(b[:], *d)
	*d = (*d)[n:]
	return binary.LittleEndian.Uint64(b[:])
}

// drawRecord builds a record of the kind data picks, every field drawn
// from data through its schema row's accessors: any int or uint64, any
// finite float, a short valid-UTF-8 string, any name of an enum.
func drawRecord(t *testing.T, data []byte) Record {
	d := draws(data)
	r := Record{Kind: Kind(d.u64() % uint64(numKinds))}
	row := &schema[r.Kind]
	*row.at(&r) = sim.Time(d.u64())
	for _, f := range row.Fields {
		switch p := f.ptr(&r).(type) {
		case *int:
			*p = int(d.u64())
		case *sim.Time:
			*p = sim.Time(d.u64())
		case *uint64:
			*p = d.u64()
		case *float64:
			if v := math.Float64frombits(d.u64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				*p = v
			}
		case *bool:
			*p = d.u64()&1 == 1
		case *string:
			n := min(int(d.u64()%24), len(d))
			*p = strings.ToValidUTF8(string(d[:n]), "?")
			d = d[n:]
		case *ClampReason:
			*p = ClampReason(d.u64() % uint64(len(clampNames.Names)))
		case *FaultKind:
			*p = FaultKind(d.u64() % uint64(len(faultNames.Names)))
		case *DegradeReason:
			*p = DegradeReason(d.u64() % uint64(len(degradeNames.Names)))
		default:
			t.Fatalf("%s.%s: no draw for %T", row.Name, f.Name, p)
		}
	}
	return r
}

// FuzzTraceRoundTrip holds the codec to two properties, seeded from the
// trace golden's lines and one line of every kind. A record drawn
// from the input encodes, decodes back to itself, and Dispatching the
// decoded record into a fresh JSONL writes the same line. The input
// read as a trace line never panics Decode; a line Decode accepts
// re-encodes to a line that decodes to the same record and re-encodes
// to itself.
func FuzzTraceRoundTrip(f *testing.F) {
	golden, err := os.ReadFile("../harness/testdata/golden-trace.jsonl")
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(golden), []byte("\n")) {
		f.Add(line)
	}
	ring := NewRing(int(numKinds))
	feedAll(ring)
	for _, r := range ring.Records() {
		f.Add(encodeLine(f, &r))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := drawRecord(t, data)
		line := encodeLine(t, &r)
		var got Record
		if err := Decode(line, &got); err != nil {
			t.Fatalf("Decode(%s): %v", line, err)
		}
		if got != r {
			t.Fatalf("%s decodes to %+v, encoded from %+v", line, got, r)
		}
		var buf bytes.Buffer
		j := NewJSONL(&buf)
		Dispatch(j, &got)
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), append(line, '\n')) {
			t.Fatalf("Dispatch re-encodes %s as %s", line, buf.Bytes())
		}

		if Decode(data, &r) != nil {
			return
		}
		line = encodeLine(t, &r)
		if err := Decode(line, &got); err != nil {
			t.Fatalf("accepted %q, but not its re-encoding %s: %v", data, line, err)
		}
		if got != r {
			t.Fatalf("%s decodes to %+v, encoded from %+v", line, got, r)
		}
		if again := encodeLine(t, &got); !bytes.Equal(again, line) {
			t.Fatalf("re-encoding is no fixpoint: %s then %s", line, again)
		}
	})
}
