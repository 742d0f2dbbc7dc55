// Package vocab holds the name table of an enumeration: the one list that
// maps each value to the name flags, the pmsd JSON API and reports use, and
// back. Each vocabulary (paradigm, eviction policy, fabric, scheduler,
// planner, TDM mode, probe event kind) has exactly one Table, owned by the
// package that implements it.
package vocab

import (
	"fmt"
	"slices"
	"strings"
)

// Table names the values 0, 1, ..., n-1 of an enumeration in declaration
// order: value v is named names[v]. The order therefore fixes each name's
// integer value, which persisted hashes (Config.Hash) depend on.
type Table[T ~int | ~uint8] struct {
	what  string
	names []string
}

// New returns the table naming values 0..len(names)-1. what names the
// vocabulary in Parse errors, e.g. "fabric" or "eviction policy".
func New[T ~int | ~uint8](what string, names ...string) Table[T] {
	return Table[T]{what: what, names: names}
}

// Valid reports whether v is one of the table's values.
func (t Table[T]) Valid(v T) bool { return v >= 0 && int(v) < len(t.names) }

// Name returns v's name, or "pkg.Type(v)" for a value outside the table.
func (t Table[T]) Name(v T) string {
	if t.Valid(v) {
		return t.names[v]
	}
	return fmt.Sprintf("%T(%d)", v, int(v))
}

// Names returns a copy of the names in value order.
func (t Table[T]) Names() []string { return slices.Clone(t.names) }

// Parse is the inverse of Name. An unknown name's error lists every valid
// name.
func (t Table[T]) Parse(name string) (T, error) {
	if i := slices.Index(t.names, name); i >= 0 {
		return T(i), nil
	}
	return 0, fmt.Errorf("unknown %s %q (valid: %s)", t.what, name, strings.Join(t.names, ", "))
}
