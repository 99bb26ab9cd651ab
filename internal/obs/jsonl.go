package obs

import (
	"bufio"
	"io"
	"strconv"
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
	b = strconv.AppendInt(b, int64(ev.at(r)), 10)
	for i := range ev.Fields {
		f := &ev.Fields[i]
		b = append(b, ',', '"')
		b = append(b, f.Name...)
		b = append(b, '"', ':')
		switch {
		case f.i != nil:
			b = strconv.AppendInt(b, f.i(r), 10)
		case f.f != nil:
			b = strconv.AppendFloat(b, f.f(r), 'g', -1, 64)
		case f.b != nil:
			b = strconv.AppendBool(b, f.b(r))
		default:
			b = appendString(b, f.s(r))
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
