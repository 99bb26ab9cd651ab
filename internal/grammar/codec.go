// Package grammar declares each run-description value once: a Codec is
// the key=value grammar of a struct, derived from the `key` tags on its
// fields, and an Enum is the name table of an integer enum. Parsing,
// printing, checking and usage text all read that one declaration.
package grammar

import (
	"encoding"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"

	"smartharvest/internal/sim"
)

// None renders a value that prints no key; every parser reads it back
// as the zero value.
const None = "none"

// Codec is the key=value grammar of the struct type T; its errors start
// with the package name given to New. A field joins it through a tag
//
//	key:"name[,prob][,agent|fleet][,always][,default=D,if=K]"
//
// prob marks a probability, checked to lie in [0,1] and multiplied by
// Scale. A scope word puts the field in the set Any tests. always prints
// the field even when it is zero; other fields print only when positive,
// true or non-empty. default=D,if=K makes Defaults fill D into the zero
// field while the field keyed K is positive.
//
// Field types are float64 (checked finite and non-negative), int and
// sim.Time (a Go duration; both checked non-negative), bool, string, and
// enums: types whose pointer is an encoding.TextUnmarshaler, printed by
// String and checked by parsing that back.
type Codec[T any] struct {
	pkg    string
	fields []field
}

type field struct {
	key, scope, gate string
	index            int
	prob, always     bool
	def              reflect.Value // invalid unless the tag has a default
}

// New derives T's grammar from its tags. A malformed tag, which only a
// bug in T's declaration makes, panics.
func New[T any](pkg string) *Codec[T] {
	t := reflect.TypeOf(*new(T))
	c := &Codec[T]{pkg: pkg}
	for i := 0; i < t.NumField(); i++ {
		sf := t.Field(i)
		tag, ok := sf.Tag.Lookup("key")
		if !ok {
			continue
		}
		words := strings.Split(tag, ",")
		f := field{key: words[0], index: i}
		for _, w := range words[1:] {
			switch name, val, _ := strings.Cut(w, "="); name {
			case "prob":
				f.prob = true
			case "agent", "fleet":
				f.scope = name
			case "always":
				f.always = true
			case "if":
				f.gate = val
			case "default":
				f.def = reflect.New(sf.Type).Elem()
				if err := set(f.def, val); err != nil {
					panic(fmt.Sprintf("grammar: %s.%s: %v", t.Name(), sf.Name, err))
				}
			default:
				panic(fmt.Sprintf("grammar: %s.%s: bad tag word %q", t.Name(), sf.Name, w))
			}
		}
		c.fields = append(c.fields, f)
	}
	return c
}

func (c *Codec[T]) lookup(key string) int {
	for i := range c.fields {
		if c.fields[i].key == key {
			return i
		}
	}
	return -1
}

// Has reports whether key belongs to the grammar.
func (c *Codec[T]) Has(key string) bool { return c.lookup(key) >= 0 }

// Keys lists the keys in scope ("" for every key) in declaration order.
func (c *Codec[T]) Keys(scope string) []string {
	var keys []string
	for _, f := range c.fields {
		if scope == "" || f.scope == scope {
			keys = append(keys, f.key)
		}
	}
	return keys
}

// Parse reads comma-separated key=value pairs into a checked T. A later
// pair overwrites an earlier one; "" and None are the zero T.
func (c *Codec[T]) Parse(s string) (v T, err error) {
	if s = strings.TrimSpace(s); s != "" && s != None {
		err = c.Pairs(s, func(key, val string) error { return c.Set(&v, key, val) })
	}
	if err == nil {
		err = c.Check(v)
	}
	if err != nil {
		v = *new(T)
	}
	return v, err
}

// Pairs calls fn on each comma-separated key=value pair of s, trimmed,
// stopping at the first error.
func (c *Codec[T]) Pairs(s string, fn func(key, val string) error) error {
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return fmt.Errorf("%s: bad pair %q (want key=value)", c.pkg, kv)
		}
		if err := fn(key, val); err != nil {
			return err
		}
	}
	return nil
}

// Set parses val into the field keyed key; Check bounds it.
func (c *Codec[T]) Set(v *T, key, val string) error {
	i := c.lookup(key)
	if i < 0 {
		return fmt.Errorf("%s: unknown key %q", c.pkg, key)
	}
	if err := set(reflect.ValueOf(v).Elem().Field(c.fields[i].index), val); err != nil {
		return fmt.Errorf("%s: bad value for %s: %v", c.pkg, key, err)
	}
	return nil
}

func set(dst reflect.Value, s string) error {
	if u, ok := dst.Addr().Interface().(encoding.TextUnmarshaler); ok {
		return u.UnmarshalText([]byte(s))
	}
	var v any
	var err error
	switch {
	case dst.Type() == reflect.TypeOf(sim.Time(0)):
		var d time.Duration
		if d, err = time.ParseDuration(s); err == nil && d < 0 {
			err = fmt.Errorf("negative duration %v", d)
		}
		v = sim.Duration(d)
	case dst.Kind() == reflect.Float64:
		v, err = strconv.ParseFloat(s, 64)
	case dst.Kind() == reflect.Int:
		v, err = strconv.Atoi(s)
	case dst.Kind() == reflect.Bool:
		v, err = strconv.ParseBool(s)
	default:
		v = s
	}
	if err == nil {
		dst.Set(reflect.ValueOf(v))
	}
	return err
}

// Format renders v's printed fields as key=value pairs in declaration
// order.
func (c *Codec[T]) Format(v T) []string {
	rv := reflect.ValueOf(v)
	var pairs []string
	for _, f := range c.fields {
		if fv := rv.Field(f.index); f.always || positive(fv) {
			s := fmt.Sprint(fv.Interface()) // String, for durations and enums
			if fv.Kind() == reflect.Float64 {
				s = strconv.FormatFloat(fv.Float(), 'g', -1, 64)
			}
			pairs = append(pairs, f.key+"="+s)
		}
	}
	return pairs
}

// Join joins parts with sep, or returns None when there are none.
func Join(parts []string, sep string) string {
	if len(parts) == 0 {
		return None
	}
	return strings.Join(parts, sep)
}

// positive reports whether a field value counts as set: a number above
// zero, true, or a non-empty string.
func positive(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Float64:
		return v.Float() > 0
	case reflect.Bool:
		return v.Bool()
	case reflect.String:
		return v.Len() > 0
	}
	return v.Int() > 0
}

var unmarshaler = reflect.TypeOf((*encoding.TextUnmarshaler)(nil)).Elem()

// Check verifies every field's value: numbers finite and non-negative,
// probabilities at most 1, enums declared.
func (c *Codec[T]) Check(v T) error {
	rv := reflect.ValueOf(v)
	for _, f := range c.fields {
		fv, want := rv.Field(f.index), ""
		switch {
		case reflect.PointerTo(fv.Type()).Implements(unmarshaler):
			if set(reflect.New(fv.Type()).Elem(), fmt.Sprint(fv.Interface())) != nil {
				want = "a declared name"
			}
		case fv.Kind() == reflect.Float64:
			if x := fv.Float(); f.prob && !(x >= 0 && x <= 1) {
				want = "a probability in [0,1]"
			} else if !(x >= 0 && x <= math.MaxFloat64) {
				want = "a finite non-negative number"
			}
		case fv.CanInt() && fv.Int() < 0:
			want = "a non-negative value"
		}
		if want != "" {
			return fmt.Errorf("%s: %s=%v is out of range (want %s)", c.pkg, f.key, fv.Interface(), want)
		}
	}
	return nil
}

// Scale multiplies every probability by f, clamped to 1.
func (c *Codec[T]) Scale(v T, f float64) T {
	rv := reflect.ValueOf(&v).Elem()
	for _, fd := range c.fields {
		if p := rv.Field(fd.index); fd.prob {
			p.SetFloat(math.Min(p.Float()*f, 1))
		}
	}
	return v
}

// Defaults fills each zero field's default while its if= field is
// positive.
func (c *Codec[T]) Defaults(v T) T {
	rv := reflect.ValueOf(&v).Elem()
	for _, f := range c.fields {
		if f.def.IsValid() && rv.Field(f.index).IsZero() && positive(rv.Field(c.fields[c.lookup(f.gate)].index)) {
			rv.Field(f.index).Set(f.def)
		}
	}
	return v
}

// Any reports whether any field in scope is positive.
func (c *Codec[T]) Any(v T, scope string) bool {
	rv := reflect.ValueOf(v)
	for _, f := range c.fields {
		if f.scope == scope && positive(rv.Field(f.index)) {
			return true
		}
	}
	return false
}
