package grammar

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
)

// Enum is the name table of an integer enum type E: E(i) is called
// Names[i]. The enum's own String, Parse and text-marshaling methods
// call into it.
type Enum[E ~int | ~uint8] struct {
	Pkg  string // prefixes error text
	What string // names the type in error text: "unknown <What>"
	// Err, when set, replaces "unknown <What>" and is wrapped by every
	// refusal, for errors.Is.
	Err error
	// Unknown renders an undeclared value; empty renders it as Type(n).
	Unknown string
	Names   []string
}

// Valid reports whether v is declared.
func (e *Enum[E]) Valid(v E) bool { return int64(v) >= 0 && int64(v) < int64(len(e.Names)) }

// String returns v's name, or its out-of-range rendering.
func (e *Enum[E]) String(v E) string {
	switch {
	case e.Valid(v):
		return e.Names[v]
	case e.Unknown != "":
		return e.Unknown
	}
	return fmt.Sprintf("%s(%d)", reflect.TypeOf(v).Name(), int64(v))
}

// Parse is the inverse of String over the declared names.
func (e *Enum[E]) Parse(s string) (E, error) {
	for i, name := range e.Names {
		if s == name {
			return E(i), nil
		}
	}
	err := e.Err
	if err == nil {
		err = errors.New("unknown " + e.What)
	}
	return 0, fmt.Errorf("%s: %w %q (want %s)", e.Pkg, err, s, e.List())
}

// MarshalText is String for a declared value and an error otherwise.
func (e *Enum[E]) MarshalText(v E) ([]byte, error) {
	if !e.Valid(v) {
		return nil, fmt.Errorf("%s: cannot marshal %s", e.Pkg, e.String(v))
	}
	return []byte(e.Names[v]), nil
}

// UnmarshalText parses text into *v.
func (e *Enum[E]) UnmarshalText(v *E, text []byte) error {
	p, err := e.Parse(string(text))
	if err == nil {
		*v = p
	}
	return err
}

// List renders the names as "a or b" or "a, b, or c".
func (e *Enum[E]) List() string {
	n := len(e.Names)
	if n <= 2 {
		return strings.Join(e.Names, " or ")
	}
	return strings.Join(e.Names[:n-1], ", ") + ", or " + e.Names[n-1]
}
