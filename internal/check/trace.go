package check

import (
	"bufio"
	"fmt"
	"io"

	"smartharvest/internal/obs"
	"smartharvest/internal/sim"
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
// well-formedness: every line must obs.Decode — the encoder's inverse,
// driven by the same obs.Schema table — and carry a non-negative
// timestamp that never decreases across lines. It reports the first
// problem on each line and stops collecting after maxTraceErrors
// problems. The returned error reports a read failure, not trace
// content; a readable-but-invalid trace returns (errs, nil).
func ValidateTrace(r io.Reader) ([]TraceError, error) {
	var errs []TraceError
	var rec obs.Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lastT := sim.Time(-1)
	for line := 1; len(errs) < maxTraceErrors && sc.Scan(); line++ {
		detail := ""
		if err := obs.Decode(sc.Bytes(), &rec); err != nil {
			detail = err.Error()
		} else if t := rec.At(); t < 0 {
			detail = fmt.Sprintf("negative timestamp %d", t)
		} else if t < lastT {
			detail = fmt.Sprintf("timestamp %d precedes previous line's %d (event ordering)", t, lastT)
		} else {
			lastT = t
		}
		if detail != "" {
			errs = append(errs, TraceError{Line: line, Detail: detail})
		}
	}
	if err := sc.Err(); err != nil {
		return errs, fmt.Errorf("check: reading trace: %w", err)
	}
	return errs, nil
}
