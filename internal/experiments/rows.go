package experiments

// Machine-readable rows: every experiment records the same data it
// formats into Report.Lines as typed cells, so the grid runner
// (grid.go) and any downstream tooling can consume experiment
// results without scraping the human tables. The emitters below have
// stable schemas — smartharvest-rows/v1 — and deterministic byte output:
// the same Report always marshals to the same CSV/JSON, which the grid
// golden tests pin across worker-pool sizes.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
)

// RowsSchema versions the CSV/JSON row emitters. The compatibility rule
// (DESIGN.md §11): consumers must reject a different major identifier
// ("smartharvest-rows/v2") and may ignore cells they do not know.
const RowsSchema = "smartharvest-rows/v1"

// Cell is one typed column value of a machine-readable row.
type Cell struct {
	// Key is the column name (snake_case, stable across releases).
	Key string
	// Str holds the value when Numeric is false.
	Str string
	// Val holds the value when Numeric is true.
	Val float64
	// Numeric distinguishes the two representations.
	Numeric bool
}

// Row is one machine-readable record of an experiment report. Section
// groups rows the way the text report groups its blocks (one workload,
// one batch kind, one sweep axis); single-table experiments leave it
// empty.
type Row struct {
	Section string
	Cells   []Cell
}

// formatNum renders a float deterministically for CSV/JSON: the shortest
// representation that round-trips (strconv 'g' with precision -1).
func formatNum(v float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return ""
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// columnOrder returns the union of cell keys across rows in order of
// first appearance, so the CSV header is stable and readable.
func (r *Report) columnOrder() []string {
	var cols []string
	seen := map[string]bool{}
	for _, row := range r.Rows {
		for _, c := range row.Cells {
			if !seen[c.Key] {
				seen[c.Key] = true
				cols = append(cols, c.Key)
			}
		}
	}
	return cols
}

// csvEscape quotes a CSV field when it needs quoting.
func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

// CSV renders the machine-readable rows as a CSV table with header
// experiment,section,<cell keys in first-appearance order>. Cells a row
// does not set are empty. Output is deterministic byte-for-byte.
func (r *Report) CSV() []byte {
	var b bytes.Buffer
	cols := r.columnOrder()
	b.WriteString("experiment,section")
	for _, c := range cols {
		b.WriteByte(',')
		b.WriteString(csvEscape(c))
	}
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(csvEscape(r.ID))
		b.WriteByte(',')
		b.WriteString(csvEscape(row.Section))
		vals := map[string]string{}
		for _, c := range row.Cells {
			vals[c.Key] = c.Str
			if c.Numeric {
				vals[c.Key] = formatNum(c.Val)
			}
		}
		for _, col := range cols {
			b.WriteByte(',')
			b.WriteString(csvEscape(vals[col]))
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// RowsJSON renders the machine-readable rows as JSON:
//
//	{
//	  "schema": "smartharvest-rows/v1",
//	  "experiment": "fig4",
//	  "title": "...",
//	  "rows": [{"section": "", "values": {"policy": "...", "p99_ns": 1}}]
//	}
//
// Values preserve cell order (the JSON is built by hand, not from a
// map), so output is deterministic byte-for-byte.
func (r *Report) RowsJSON() []byte {
	var b bytes.Buffer
	b.WriteString("{\n")
	fmt.Fprintf(&b, "  %s: %s,\n", jstr("schema"), jstr(RowsSchema))
	fmt.Fprintf(&b, "  %s: %s,\n", jstr("experiment"), jstr(r.ID))
	fmt.Fprintf(&b, "  %s: %s,\n", jstr("title"), jstr(r.Title))
	b.WriteString("  \"rows\": [")
	for i, row := range r.Rows {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString("\n    {")
		fmt.Fprintf(&b, "%s: %s, %s: {", jstr("section"), jstr(row.Section), jstr("values"))
		for j, c := range row.Cells {
			if j > 0 {
				b.WriteString(", ")
			}
			b.WriteString(jstr(c.Key))
			b.WriteString(": ")
			if !c.Numeric {
				b.WriteString(jstr(c.Str))
			} else if s := formatNum(c.Val); s != "" {
				b.WriteString(s)
			} else {
				b.WriteString("null")
			}
		}
		b.WriteString("}}")
	}
	if len(r.Rows) > 0 {
		b.WriteString("\n  ")
	}
	b.WriteString("]\n}\n")
	return b.Bytes()
}

// jstr JSON-encodes a string (always succeeds).
func jstr(s string) string {
	out, _ := json.Marshal(s)
	return string(out)
}
