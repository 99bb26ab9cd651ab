package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"smartharvest/internal/check"
	"smartharvest/internal/harness"
	"smartharvest/internal/obs"
	"smartharvest/internal/sched"
)

// col is one column of a report table.
type col struct {
	head string // header text; a table whose columns have no heads prints no header
	w    int    // text width; negative left-aligns, 0 leaves the text unpadded
	verb string // fmt verb for a value ("" is %v); msVerb renders nanoseconds with ms
	key  string // Row key; "" keeps the column out of the Row
	hide bool   // keep the column out of the text (a Row-only cell)
}

// msVerb marks a column of nanosecond latencies: the text shows ms(v), the
// Row records the nanoseconds.
const msVerb = "ms"

// shown is a cell value whose text differs from what the Row records.
type shown struct {
	text string
	v    any
}

// p99Cols is the recurring P99 / vs base / harvested column set; vsBase
// fills it.
var p99Cols = []col{
	{head: "P99", w: 10, verb: msVerb, key: "p99_ns"},
	{head: "vs base", w: 8},
	{head: "harvested", w: 12, verb: "%.2f", key: "harvested_cores"},
}

// vsBase returns res's values for p99Cols measured against base. A nil
// base marks the baseline's own line: no delta, nothing harvested.
func vsBase(res, base *harness.Result) []any {
	if base == nil {
		return []any{res.P99(0), nil, 0.0}
	}
	return []any{res.P99(0), pct(res.P99(0), base.P99(0)), res.AvgHarvestedCores}
}

// goodputCols is the sched family's goodput / SLO tail; goodput fills it.
var goodputCols = []col{
	{head: "goodput", w: 9, verb: "%.1fs", key: "goodput_core_s"},
	{head: "SLO", w: 5, key: "slo_attainment"},
}

// goodput returns a scheduler run's values for goodputCols.
func goodput(res *sched.Result) []any {
	slo := "n/a"
	if res.SLOJobs > 0 {
		slo = fmt.Sprintf("%3.0f%%", 100*res.SLOAttainment())
	}
	return []any{res.GoodputCoreSec, shown{slo, res.SLOAttainment()}}
}

// table writes aligned text lines and typed Rows into a report, one
// value per column. A nil value shows "-" and records no cell; a string
// is shown as-is (whatever the column's verb) and recorded as a string;
// []any values are flattened, so a shared column set can take its values
// as one slice.
type table struct {
	r    *Report
	cols []col
}

// newTable starts a table on r and writes its header line.
func newTable(r *Report, cols ...col) *table {
	t := &table{r: r, cols: cols}
	heads := make([]any, len(cols))
	named := false
	for i, c := range cols {
		heads[i] = c.head
		named = named || c.head != ""
	}
	if named {
		r.Lines = append(r.Lines, strings.TrimRight(t.text(heads), " "))
	}
	return t
}

// add writes one text line and its Row from the same values, one per
// column.
func (t *table) add(section string, vals ...any) {
	vals = flatten(vals)
	t.r.Lines = append(t.r.Lines, t.text(vals))
	t.rec(section, vals...)
}

// line writes a text line without a Row (a reference line, such as a
// baseline the Rows leave out).
func (t *table) line(vals ...any) { t.r.Lines = append(t.r.Lines, t.text(flatten(vals))) }

// rec records a Row without a text line.
func (t *table) rec(section string, vals ...any) {
	vals = flatten(vals)
	var cells []Cell
	for i, c := range t.cols {
		if c.key != "" && vals[i] != nil {
			cells = append(cells, c.cell(vals[i]))
		}
	}
	t.r.Rows = append(t.r.Rows, Row{Section: section, Cells: cells})
}

func (t *table) text(vals []any) string {
	var parts []string
	for i, c := range t.cols {
		if !c.hide {
			parts = append(parts, fmt.Sprintf("%*s", c.w, c.show(vals[i])))
		}
	}
	return strings.Join(parts, " ")
}

func (c col) show(v any) string {
	switch v := v.(type) {
	case nil:
		return "-"
	case string:
		return v
	case shown:
		return v.text
	}
	if c.verb == msVerb {
		return ms(int64(num(v)))
	}
	return fmt.Sprintf(cmp.Or(c.verb, "%v"), v)
}

func (c col) cell(v any) Cell {
	switch v := v.(type) {
	case shown:
		return c.cell(v.v)
	case string:
		return Cell{Key: c.key, Str: v}
	case fmt.Stringer:
		if c.verb != msVerb {
			return Cell{Key: c.key, Str: v.String()}
		}
	}
	return Cell{Key: c.key, Val: num(v), Numeric: true}
}

// num converts any integer or float value to float64.
func num(v any) float64 {
	rv := reflect.ValueOf(v)
	switch {
	case rv.CanInt():
		return float64(rv.Int())
	case rv.CanUint():
		return float64(rv.Uint())
	case rv.CanFloat():
		return rv.Float()
	}
	panic(fmt.Sprintf("experiments: %T is not a number", v))
}

func flatten(vals []any) []any {
	var out []any
	for _, v := range vals {
		if vs, ok := v.([]any); ok {
			out = append(out, flatten(vs)...)
		} else {
			out = append(out, v)
		}
	}
	return out
}

// arm is one independent run of an experiment — a single-server scenario,
// or a fleet-scheduler run when fleet is set — and, once run, its result.
type arm struct {
	name  string // the report's label for the run
	scen  harness.Scenario
	fleet *sched.Config
	res   *harness.Result
	sres  *sched.Result
}

// section is a baseline (nil when there is none) and the arms measured
// against it.
type section struct {
	base *arm
	arms []*arm
}

// add appends an arm running scen, labelled name.
func (s *section) add(name string, scen harness.Scenario) {
	s.arms = append(s.arms, &arm{name: name, scen: scen})
}

// withBase starts a section whose baseline runs scen.
func withBase(scen harness.Scenario) *section { return &section{base: &arm{scen: scen}} }

// sweep runs every section's baseline and arms, in declaration order, on
// the configured worker pool and stores each result on its arm. Every run
// is an independent seeded simulation, so results are byte-identical at
// any cfg.Parallel. With cfg.Check each run carries an invariant checker
// (check.New for scenarios, check.NewJobChecker for scheduler runs) whose
// verdict is counted into CheckStats; with cfg.TraceDir each run writes
// its own JSONL trace, named after the run, its seed and its index (poll
// samples omitted). A run that fails or violates an invariant contributes
// one error to the joined error; the others still run.
func sweep(cfg Config, secs ...*section) error {
	var arms []*arm
	for _, s := range secs {
		if s.base != nil {
			arms = append(arms, s.base)
		}
		arms = append(arms, s.arms...)
	}
	errs := make([]error, len(arms))
	harness.ForEach(len(arms), cfg.Parallel, func(i int) { errs[i] = arms[i].run(cfg, i) })
	return errors.Join(errs...)
}

func (a *arm) run(cfg Config, i int) (err error) {
	name, seed := a.scen.Name, a.scen.Seed
	if a.fleet != nil {
		name, seed = a.name, a.fleet.Fleet.Seed
	}
	var trace obs.Observer
	if cfg.TraceDir != "" {
		// The index keeps names unique (sweeps reuse scenario names).
		path := filepath.Join(cfg.TraceDir, fmt.Sprintf("%s-s%d-%03d.jsonl", sanitizeTraceName(name), seed, i))
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("experiments: creating trace: %w", err)
		}
		sink := obs.NewJSONL(f, obs.JSONLOmitPolls())
		defer func() {
			if ferr := errors.Join(sink.Flush(), f.Close()); ferr != nil {
				err = errors.Join(err, fmt.Errorf("experiments: trace %s: %w", path, ferr))
			}
		}()
		trace = sink
	}
	var rep *check.Report
	if a.fleet != nil {
		c := *a.fleet
		c.Fleet.Observer = obs.Multi(c.Fleet.Observer, trace)
		if cfg.Check {
			c.Checker = check.NewJobChecker()
		}
		if a.sres, err = sched.Run(c); a.sres != nil {
			rep = a.sres.Check
		}
	} else {
		// Chain rather than replace: an arm's own observer (the predictor
		// ablation's accuracy tracker) keeps receiving events.
		s := a.scen
		s.Observer = obs.Multi(s.Observer, trace)
		if cfg.Check {
			s.Checker = check.New()
		}
		if a.res, err = harness.Run(s); a.res != nil {
			rep = a.res.Check
		}
	}
	if err != nil {
		return fmt.Errorf("experiments: run %d (%s): %w", i, name, err)
	}
	if rep != nil {
		checkedRuns.Add(1)
		if !rep.OK() {
			checkViolations.Add(int64(len(rep.Violations) + rep.Dropped))
			return fmt.Errorf("experiments: run %d (%s) violated invariants:\n%s", i, name, rep)
		}
	}
	return nil
}

// sanitizeTraceName maps a run name to a safe filename stem.
func sanitizeTraceName(name string) string {
	if name == "" {
		return "scenario"
	}
	return strings.Map(func(r rune) rune {
		if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' || r == '-' || r == '_' || r == '.' {
			return r
		}
		return '_'
	}, name)
}
