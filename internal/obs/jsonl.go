package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode/utf8"

	"smartharvest/internal/grammar"
	"smartharvest/internal/sim"
)

// JSONL streams every event as one newline-delimited JSON object with a
// stable, versioned schema (SchemaVersion). Lines are hand-encoded —
// fields appear in a fixed order and floats use Go's shortest-round-trip
// formatting — so for a given scenario and seed the trace is
// byte-identical run over run, including across RunAll parallelism
// settings (each scenario owns its writer).
//
// Every line carries `"v"` (schema version), `"ev"` (event name, the
// Kind string) and `"t"` (virtual nanoseconds); the remaining fields are
// the ones the kind's Schema row lists (DESIGN.md §6 tabulates them).
// Decode reads a line back into the Record it was written from.
//
// Writes are buffered; call Flush when the run is done and check Err.
// JSONL is not safe for concurrent use — attach one per scenario.
type JSONL struct {
	Adapter
	w         *bufio.Writer
	buf       []byte
	omitPolls bool
	err       error
}

// JSONLOption configures a JSONL sink.
type JSONLOption func(*JSONL)

// JSONLOmitPolls drops PollSample events from the trace. Polls fire
// every 50 µs of virtual time and dominate trace volume ~1000:1; traces
// meant for window-level analysis usually want them off.
func JSONLOmitPolls() JSONLOption {
	return func(j *JSONL) { j.omitPolls = true }
}

// NewJSONL returns a sink streaming to w.
func NewJSONL(w io.Writer, opts ...JSONLOption) *JSONL {
	j := &JSONL{w: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
	j.Sink = j
	for _, o := range opts {
		o(j)
	}
	return j
}

// Flush writes out buffered lines and returns the first error seen.
func (j *JSONL) Flush() error {
	if err := j.w.Flush(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// Err returns the first write error, if any. Sinks keep accepting events
// after an error but drop them.
func (j *JSONL) Err() error { return j.err }

// Observe implements Sink: it encodes r as one line — the common
// "v"/"ev"/"t" prefix, then the fields its Kind's schema row lists.
func (j *JSONL) Observe(r *Record) {
	if j.err != nil || (j.omitPolls && r.Kind == KindPollSample) {
		return
	}
	ev := &schema[r.Kind]
	b := append(j.buf[:0], `{"v":`...)
	b = strconv.AppendInt(b, SchemaVersion, 10)
	b = append(b, `,"ev":"`...)
	b = append(b, ev.Name...)
	b = append(b, `","t":`...)
	b = strconv.AppendInt(b, int64(*ev.at(r)), 10)
	for i := range ev.Fields {
		f := &ev.Fields[i]
		b = append(b, ',', '"')
		b = append(b, f.Name...)
		b = append(b, '"', ':')
		switch p := f.ptr(r).(type) {
		case *int:
			b = strconv.AppendInt(b, int64(*p), 10)
		case *sim.Time:
			b = strconv.AppendInt(b, int64(*p), 10)
		case *uint64:
			b = strconv.AppendUint(b, *p, 10)
		case *float64:
			b = strconv.AppendFloat(b, *p, 'g', -1, 64)
		case *bool:
			b = strconv.AppendBool(b, *p)
		case *string:
			b = appendString(b, *p)
		// The enums get concrete cases: a fmt.Stringer case would make the
		// runtime fill its type-switch cache, which now and then allocates.
		case *ClampReason:
			b = appendString(b, p.String())
		case *FaultKind:
			b = appendString(b, p.String())
		case *DegradeReason:
			b = appendString(b, p.String())
		}
	}
	j.buf = append(b, '}', '\n')
	if _, err := j.w.Write(j.buf); err != nil {
		j.err = err
	}
}

// appendString appends v as a JSON string.
func appendString(b []byte, v string) []byte {
	b = append(b, '"')
	for i := 0; i < len(v); i++ {
		c := v[i]
		// Event strings are workload/mechanism names (ASCII identifiers);
		// escape the JSON specials anyway so arbitrary names stay valid.
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			b = append(b, `\u00`...)
			const hex = "0123456789abcdef"
			b = append(b, hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// Decode parses one trace line into r, overwriting it: the encoder's
// inverse, driven by the same Schema rows. It refuses every line whose
// record the encoder could not have written — bytes that are not valid
// UTF-8 or not one JSON object, another schema version, an unknown event,
// a missing, extra, null or mistyped field (an int field takes only an
// integer in range), or a name outside an enum's set — so re-encoding
// the record gives the line back, up to JSON whitespace, key order,
// duplicate keys and string escapes. After an error r is unspecified.
func Decode(line []byte, r *Record) error {
	if !utf8.Valid(line) {
		return errors.New("not valid UTF-8")
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(line, &fields); err != nil {
		return fmt.Errorf("not a JSON object: %v", err)
	}
	var v int64
	var ev string
	if err := take(fields, "v", &v); err != nil {
		return err
	}
	if v != SchemaVersion {
		return fmt.Errorf("schema version %d, want %d", v, SchemaVersion)
	}
	if err := take(fields, "ev", &ev); err != nil {
		return err
	}
	k := slices.IndexFunc(schema[:], func(row EventSchema) bool { return row.Name == ev })
	if k < 0 {
		return fmt.Errorf("unknown event %q", ev)
	}
	*r = Record{Kind: Kind(k)}
	row := &schema[k]
	if err := take(fields, "t", row.at(r)); err != nil {
		return err
	}
	for i := range row.Fields {
		if err := take(fields, row.Fields[i].Name, row.Fields[i].ptr(r)); err != nil {
			return fmt.Errorf("%s event: %w", ev, err)
		}
	}
	if len(fields) > 0 {
		extra := make([]string, 0, len(fields))
		for name := range fields {
			extra = append(extra, name)
		}
		return fmt.Errorf("%s event has unknown field %q", ev, slices.Min(extra))
	}
	return nil
}

// take decodes fields[name] into the Go value p points at and removes it
// from fields.
func take(fields map[string]json.RawMessage, name string, p any) error {
	raw, ok := fields[name]
	if !ok {
		return fmt.Errorf("missing %q", name)
	}
	delete(fields, name)
	if string(raw) == "null" { // json.Unmarshal would leave p as it is
		return fmt.Errorf("%q is null", name)
	}
	switch v := p.(type) {
	case *sim.Time: // nanoseconds, not the duration string UnmarshalText reads
		p = (*int64)(v)
	case *ClampReason:
		return takeEnum(raw, name, &clampNames, v)
	case *FaultKind:
		return takeEnum(raw, name, &faultNames, v)
	case *DegradeReason:
		return takeEnum(raw, name, &degradeNames, v)
	}
	if json.Unmarshal(raw, p) != nil {
		return fmt.Errorf("%q has the wrong JSON type", name)
	}
	return nil
}

// takeEnum decodes a JSON string naming one of names' values into p.
func takeEnum[E ~uint8](raw json.RawMessage, name string, names *grammar.Enum[E], p *E) error {
	var s string
	if json.Unmarshal(raw, &s) != nil {
		return fmt.Errorf("%q has the wrong JSON type", name)
	}
	v, err := names.Parse(s)
	if err != nil {
		return fmt.Errorf("unknown %s %q", name, s)
	}
	*p = v
	return nil
}
