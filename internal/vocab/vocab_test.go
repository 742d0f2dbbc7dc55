package vocab

import (
	"strings"
	"testing"
)

type color int

func TestTable(t *testing.T) {
	cases := []struct {
		name  string
		table Table[color]
	}{
		{"one", New[color]("hue", "red")},
		{"three", New[color]("color", "red", "green", "blue")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			names := tc.table.Names()
			for i, name := range names {
				v := color(i)
				if got := tc.table.Name(v); got != name {
					t.Errorf("Name(%d) = %q, want %q", i, got, name)
				}
				if got, err := tc.table.Parse(name); err != nil || got != v {
					t.Errorf("Parse(%q) = %d, %v; want %d", name, got, err, i)
				}
			}

			// Valid at both bounds, and just outside them.
			last := color(len(names) - 1)
			for v, want := range map[color]bool{-1: false, 0: true, last: true, last + 1: false} {
				if got := tc.table.Valid(v); got != want {
					t.Errorf("Valid(%d) = %v, want %v", v, got, want)
				}
			}

			// Values outside the table still render, naming their type.
			for _, v := range []color{-1, last + 1, 99} {
				if got := tc.table.Name(v); got == "" || !strings.Contains(got, "vocab.color(") {
					t.Errorf("Name(%d) = %q, want a non-empty vocab.color(...) fallback", v, got)
				}
			}

			// Names hands out a copy; editing it leaves the table intact.
			tc.table.Names()[0] = "mauve"
			if got := tc.table.Name(0); got != names[0] {
				t.Errorf("editing Names() changed Name(0) to %q", got)
			}

			_, err := tc.table.Parse("mauve")
			if err == nil {
				t.Fatal("Parse accepted an unknown name")
			}
			if want := strings.Join(names, ", "); !strings.Contains(err.Error(), want) {
				t.Errorf("Parse error %q does not list %q", err, want)
			}
		})
	}
}
