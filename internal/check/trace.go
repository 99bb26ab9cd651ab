package check

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"smartharvest/internal/obs"
)

// TraceError is one well-formedness problem in a JSONL trace.
type TraceError struct {
	// Line is the 1-based line number in the trace.
	Line int
	// Detail explains the problem.
	Detail string
}

func (e TraceError) String() string {
	return fmt.Sprintf("trace line %d: %s", e.Line, e.Detail)
}

// maxTraceErrors caps the errors ValidateTrace returns; a corrupt trace
// would otherwise produce one per line.
const maxTraceErrors = 100

// ValidateTrace checks a JSONL trace (as written by obs.NewJSONL) for
// well-formedness against obs.Schema, the table the encoder itself is
// driven by: every line is a JSON object carrying the current schema
// version, a known event name, a non-negative timestamp that never
// decreases across lines, exactly the fields that event's row lists with
// the right JSON types, and — for fields with a closed value set, such
// as a window decision's clamp reason — a value from that set. It stops
// collecting after maxTraceErrors problems. The returned error reports a
// read failure, not trace content; a readable-but-invalid trace returns
// (errs, nil).
func ValidateTrace(r io.Reader) ([]TraceError, error) {
	var errs []TraceError
	add := func(line int, format string, args ...any) {
		if len(errs) < maxTraceErrors {
			errs = append(errs, TraceError{Line: line, Detail: fmt.Sprintf(format, args...)})
		}
	}

	rows := obs.Schema()
	events := make(map[string]*obs.EventSchema, len(rows))
	for i := range rows {
		events[rows[i].Name] = &rows[i]
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	lastT := int64(-1)
	for sc.Scan() {
		line++
		if len(errs) >= maxTraceErrors {
			break
		}
		raw := sc.Bytes()
		if len(raw) == 0 {
			add(line, "empty line")
			continue
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(raw, &fields); err != nil {
			add(line, "not a JSON object: %v", err)
			continue
		}

		// Common prefix: schema version, event name, timestamp.
		v, ok := numField(fields, "v")
		if !ok {
			add(line, `missing or non-numeric "v"`)
			continue
		}
		if int64(v) != obs.SchemaVersion {
			add(line, "schema version %g, want %d", v, obs.SchemaVersion)
		}
		ev, ok := strField(fields, "ev")
		if !ok {
			add(line, `missing or non-string "ev"`)
			continue
		}
		schema, known := events[ev]
		if !known {
			add(line, "unknown event %q", ev)
			continue
		}
		t, ok := numField(fields, "t")
		if !ok {
			add(line, `missing or non-numeric "t"`)
			continue
		}
		if t < 0 {
			add(line, "negative timestamp %g", t)
		}
		if int64(t) < lastT {
			add(line, "timestamp %d precedes previous line's %d (event ordering)", int64(t), lastT)
		} else {
			lastT = int64(t)
		}

		// Per-event fields: all required present with the right type and a
		// legal value, no extras beyond the schema.
		for _, f := range schema.Fields {
			rawv, present := fields[f.Name]
			if !present {
				add(line, "%s event missing %q", ev, f.Name)
				continue
			}
			if !typeMatches(rawv, f.Type) {
				add(line, "%s field %q has the wrong JSON type", ev, f.Name)
			} else if f.Enum != nil {
				if v, _ := strField(fields, f.Name); !slices.Contains(f.Enum, v) {
					add(line, "unknown %s %q", f.Name, v)
				}
			}
		}
		for name := range fields {
			if name == "v" || name == "ev" || name == "t" {
				continue
			}
			if !slices.ContainsFunc(schema.Fields, func(f obs.Field) bool { return f.Name == name }) {
				add(line, "%s event has unknown field %q", ev, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return errs, fmt.Errorf("check: reading trace: %w", err)
	}
	return errs, nil
}

func numField(fields map[string]json.RawMessage, name string) (float64, bool) {
	raw, ok := fields[name]
	if !ok {
		return 0, false
	}
	var v float64
	if json.Unmarshal(raw, &v) != nil {
		return 0, false
	}
	return v, true
}

func strField(fields map[string]json.RawMessage, name string) (string, bool) {
	raw, ok := fields[name]
	if !ok {
		return "", false
	}
	var v string
	if json.Unmarshal(raw, &v) != nil {
		return "", false
	}
	return v, true
}

// typeMatches reports whether raw decodes as the obs.Field type typ. The
// trace format writes "int" and "float" fields alike as JSON numbers.
func typeMatches(raw json.RawMessage, typ string) bool {
	switch typ {
	case "int", "float":
		var v float64
		return json.Unmarshal(raw, &v) == nil
	case "bool":
		var v bool
		return json.Unmarshal(raw, &v) == nil
	case "string":
		var v string
		return json.Unmarshal(raw, &v) == nil
	}
	return false
}
