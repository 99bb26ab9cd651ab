package obs

import (
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"
)

// capture is the smallest possible sink: it keeps a copy of every Record.
type capture struct {
	Adapter
	got []Record
}

func newCapture() *capture {
	c := &capture{}
	c.Sink = c
	return c
}

func (c *capture) Observe(r *Record) { c.got = append(c.got, *r) }

// fill sets every leaf of v to a non-zero value, distinct per leaf where
// the type allows (the uint8 enums all get 1, a legal value of each).
func fill(v reflect.Value, next *int64) {
	*next++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), next)
		}
	case reflect.Int, reflect.Int64:
		v.SetInt(*next)
	case reflect.Uint64:
		v.SetUint(uint64(*next))
	case reflect.Uint8:
		v.SetUint(1)
	case reflect.Float64:
		v.SetFloat(float64(*next) + 0.5)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString(fmt.Sprint("s", *next))
	default:
		panic("fill: event field of unhandled kind " + v.Kind().String())
	}
}

// leaves returns the index path of every leaf field of struct type t,
// nested structs (WindowEnd.Features) flattened.
func leaves(t reflect.Type, prefix []int) [][]int {
	var out [][]int
	for i := 0; i < t.NumField(); i++ {
		path := append(append([]int(nil), prefix...), i)
		if ft := t.Field(i).Type; ft.Kind() == reflect.Struct {
			out = append(out, leaves(ft, path)...)
		} else {
			out = append(out, path)
		}
	}
	return out
}

// readRow evaluates a schema row against r: the timestamp first, then
// the value of every trace field in line order.
func readRow(row *EventSchema, r *Record) []any {
	out := []any{*row.at(r)}
	for _, f := range row.Fields {
		out = append(out, reflect.ValueOf(f.ptr(r)).Elem().Interface())
	}
	return out
}

// eventTypes delivers one filled event through every Observer method of a
// fresh Adapter and returns, by the Kind each arrived under, the event's
// Go type. It is the walk the completeness guard and the DESIGN.md table
// share; any disagreement between the Observer method set, Record's
// members, the Kind constants, the Adapter and Dispatch fails here, naming
// the piece that is missing.
func eventTypes(t *testing.T) [numKinds]reflect.Type {
	t.Helper()
	var types [numKinds]reflect.Type
	iface := reflect.TypeOf((*Observer)(nil)).Elem()
	recT := reflect.TypeOf(Record{})
	if iface.NumMethod() != int(numKinds) {
		t.Errorf("Observer has %d methods but there are %d Kind constants", iface.NumMethod(), numKinds)
	}
	if recT.NumField() != int(numKinds)+1 {
		t.Errorf("Record has %d members besides Kind but there are %d Kind constants", recT.NumField()-1, numKinds)
	}
	var seed int64
	for i := 0; i < iface.NumMethod(); i++ {
		m := iface.Method(i)
		name := strings.TrimPrefix(m.Name, "On")
		if name == m.Name || m.Type.NumIn() != 1 || m.Type.NumOut() != 0 || m.Type.In(0).Name() != name {
			t.Errorf("Observer.%s: want the form On<Event>(<Event>)", m.Name)
			continue
		}
		evT := m.Type.In(0)
		if f, ok := recT.FieldByName(name); !ok || f.Type != evT {
			t.Errorf("Record has no member %s of type %s", name, evT)
			continue
		}

		// Adapter: the event arrives once, under its own Kind, as the only
		// populated member, and the scratch Record is clean afterwards.
		e := reflect.New(evT).Elem()
		fill(e, &seed)
		in := newCapture()
		reflect.ValueOf(in).MethodByName(m.Name).Call([]reflect.Value{e})
		if len(in.got) != 1 {
			t.Errorf("Adapter.%s delivered %d records, want 1", m.Name, len(in.got))
			continue
		}
		r := in.got[0]
		if r.Kind >= numKinds {
			t.Errorf("Adapter.%s delivers Kind %d, which is not a Kind constant", m.Name, r.Kind)
			continue
		}
		if prev := types[r.Kind]; prev != nil {
			t.Errorf("Adapter.%s delivers Kind %d, which Adapter.On%s already does", m.Name, r.Kind, prev.Name())
			continue
		}
		types[r.Kind] = evT
		want := reflect.New(recT).Elem()
		want.FieldByName("Kind").SetUint(uint64(r.Kind))
		want.FieldByName(name).Set(e)
		if r != want.Interface().(Record) {
			t.Errorf("Adapter.%s: record is not {Kind, %s: e}: %+v", m.Name, name, r)
		}
		if in.rec != (Record{Kind: r.Kind}) {
			t.Errorf("Adapter.%s left its scratch Record populated", m.Name)
		}

		// Dispatch is the inverse: the record comes back out of a second
		// Adapter unchanged, i.e. On<Event> was called with e' == e.
		out := newCapture()
		Dispatch(out, &r)
		if len(out.got) != 1 || out.got[0] != r {
			t.Errorf("Dispatch of a %s record (Kind %d) does not call %s with the event", name, r.Kind, m.Name)
		}
		Dispatch(NopObserver{}, &r)
	}
	return types
}

// TestEnvelopeComplete is the guard that makes "adding an event" a
// checklist: it fails, naming the missing piece, unless the Observer
// method set, the Kind constants, Record's members, the Adapter, the
// schema rows' Dispatch calls and NopObserver agree one-to-one, each
// row's timestamp plus trace fields read every field of the event struct
// exactly once, and the codec round-trips the event.
func TestEnvelopeComplete(t *testing.T) {
	var _ Observer = NopObserver{}
	var _ Observer = (*Adapter)(nil)

	types := eventTypes(t)
	recT := reflect.TypeOf(Record{})
	wire := map[string]Kind{}
	for k := Kind(0); k < numKinds; k++ {
		evT, row := types[k], &schema[k]
		if evT == nil {
			t.Errorf("Kind %d: no Observer method delivers it", k)
			continue
		}
		if row.Name == "" || row.at == nil {
			t.Errorf("schema has no row for Kind %d (%s)", k, evT.Name())
			continue
		}
		if prev, dup := wire[row.Name]; dup {
			t.Errorf("schema rows %d and %d share the wire name %q", prev, k, row.Name)
		}
		wire[row.Name] = k

		names := map[string]bool{"v": true, "ev": true, "t": true}
		for _, f := range row.Fields {
			if names[f.Name] {
				t.Errorf("%s: trace field %q appears twice", row.Name, f.Name)
			}
			names[f.Name] = true
		}

		// One-to-one: moving any single struct field moves exactly one of
		// the row's outputs, and every output is moved by exactly one.
		zero := Record{Kind: k}
		base := readRow(row, &zero)
		moved := make([]int, len(base))
		member, _ := recT.FieldByName(evT.Name())
		for _, path := range leaves(evT, nil) {
			rec := reflect.New(recT).Elem()
			rec.FieldByName("Kind").SetUint(uint64(k))
			var seed int64
			fill(rec.FieldByIndex(member.Index).FieldByIndex(path), &seed)
			got := readRow(row, rec.Addr().Interface().(*Record))
			var hits []int
			for i := range got {
				if got[i] != base[i] {
					hits = append(hits, i)
				}
			}
			if len(hits) != 1 {
				t.Errorf("%s: %s.%s is read by %d of the row's fields, want exactly 1",
					row.Name, evT.Name(), evT.FieldByIndex(path).Name, len(hits))
				continue
			}
			moved[hits[0]]++
		}
		for i, n := range moved {
			if n != 1 {
				name := "t"
				if i > 0 {
					name = row.Fields[i-1].Name
				}
				t.Errorf("%s: trace field %q reads %d fields of %s, want exactly 1", row.Name, name, n, evT.Name())
			}
		}

		// The codec handles every field's Go type: the event, every field
		// set, encodes and decodes back to itself.
		full := reflect.New(recT).Elem()
		full.FieldByName("Kind").SetUint(uint64(k))
		var seed int64
		fill(full.FieldByIndex(member.Index), &seed)
		want := full.Interface().(Record)
		line := encodeLine(t, &want)
		if got := (Record{}); Decode(line, &got) != nil || got != want {
			t.Errorf("%s: %s does not decode back to the event it encodes", row.Name, line)
		}
	}
}

// TestDispatchRoundTrip: a realistic event of every kind survives
// On<Event>(e) → Record → Dispatch → On<Event>(e') with e' == e.
func TestDispatchRoundTrip(t *testing.T) {
	first, second := NewRing(32), NewRing(32)
	n := feedAll(first)
	recs := first.Records()
	if len(recs) != n {
		t.Fatalf("captured %d records, want %d", len(recs), n)
	}
	for i := range recs {
		Dispatch(second, &recs[i])
	}
	got := second.Records()
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("%s record changed in the round trip", recs[i].Kind)
		}
	}
}

// windowTally is a plain Observer — not a Sink — of the kind user code
// writes by embedding NopObserver.
type windowTally struct {
	NopObserver
	seqs []uint64
}

func (w *windowTally) OnWindowEnd(e WindowEnd) { w.seqs = append(w.seqs, e.Seq) }

func TestMultiReachesPlainObservers(t *testing.T) {
	tally, ring := &windowTally{}, NewRing(32)
	n := feedAll(Multi(tally, ring))
	if len(tally.seqs) != 1 || tally.seqs[0] != 1 {
		t.Errorf("plain observer inside Multi saw windows %v, want [1]", tally.seqs)
	}
	if int(ring.TotalEvents()) != n {
		t.Errorf("sink after a plain observer saw %d events, want %d", ring.TotalEvents(), n)
	}
}

// TestSinksZeroAlloc: delivering events through the Adapter into the
// three stock sinks allocates nothing once warm — the scratch Record does
// not escape per event. The count is exact (one measured run over 31000
// events), so a single allocation anywhere fails it.
func TestSinksZeroAlloc(t *testing.T) {
	o := Multi(NewRing(64), NewMetrics(), NewJSONL(io.Discard))
	feedAll(o) // warm pass: the JSONL line buffer reaches its steady size
	// One run, many passes: AllocsPerRun divides by the run count in
	// integers, so a single run reports the total and an allocation
	// amortised over thousands of events still counts as one.
	const passes = 1000
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < passes; i++ {
			feedAll(o)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations delivering %d events into Multi(Ring, Metrics, JSONL), want 0", allocs, passes*int(numKinds))
	}
}

var updateDesign = flag.Bool("update", false, "rewrite the generated schema table in DESIGN.md")

// schemaTable renders the descriptor table as the markdown table DESIGN.md
// §6 carries.
func schemaTable(types [numKinds]reflect.Type) string {
	var b strings.Builder
	b.WriteString("| `ev` | Go event | fields after `{\"v\":1,\"ev\":…,\"t\":…}`, in line order |\n|---|---|---|\n")
	for k, row := range schema {
		fmt.Fprintf(&b, "| `%s` | `obs.%s` |", row.Name, types[k].Name())
		for i, f := range row.Fields {
			if i > 0 {
				b.WriteByte(',')
			}
			typ, enum := f.Type()
			fmt.Fprintf(&b, " `%s` %s", f.Name, typ)
			if enum != nil {
				fmt.Fprintf(&b, " (`%s`)", strings.Join(enum, "`/`"))
			}
		}
		if len(row.Fields) == 0 {
			b.WriteString(" (none)")
		}
		b.WriteString(" |\n")
	}
	return b.String()
}

// TestDesignSchemaTable pins the schema table in DESIGN.md §6 to the
// descriptor table; run with -update to regenerate it after a schema
// change.
func TestDesignSchemaTable(t *testing.T) {
	const (
		path  = "../../DESIGN.md"
		begin = "<!-- schema-table:begin (generated: go test ./internal/obs -run TestDesignSchemaTable -update) -->\n"
		end   = "<!-- schema-table:end -->\n"
	)
	types := eventTypes(t)
	if t.Failed() {
		return
	}
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	head, rest, ok := strings.Cut(string(doc), begin)
	old, tail, ok2 := strings.Cut(rest, end)
	if !ok || !ok2 {
		t.Fatalf("%s has no schema-table markers", path)
	}
	want := schemaTable(types)
	if old == want {
		return
	}
	if !*updateDesign {
		t.Fatalf("%s schema table is stale; re-run with -update", path)
	}
	if err := os.WriteFile(path, []byte(head+begin+want+end+tail), 0o644); err != nil {
		t.Fatal(err)
	}
}
