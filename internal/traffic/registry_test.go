package traffic

import (
	"reflect"
	"sort"
	"strings"
	"testing"
)

// setKeys returns the parameter names set explicitly on s, sorted.
func (s *Spec) setKeys() []string {
	keys := make([]string, 0, len(s.set))
	for k := range s.set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// nonDefault returns a valid value for p that differs from its default.
func nonDefault(t *testing.T, g *Generator, p Param) string {
	t.Helper()
	switch p.Kind {
	case KindInt:
		switch {
		case g.Name == "shift" && p.Name == "distance":
			return "3"
		default:
			return "5"
		}
	case KindFloat:
		return "0.5"
	case KindDuration:
		return "75ns"
	case KindEnum:
		for _, e := range p.Enum {
			if e != p.Default {
				return e
			}
		}
		t.Fatalf("%s: enum param %q has a single value", g.Name, p.Name)
	}
	t.Fatalf("%s: unknown kind for param %q", g.Name, p.Name)
	return ""
}

// TestSpecRoundTrip drives the parse↔string round-trip for every registered
// generator: the bare name, a spec with every parameter explicitly set to
// its default (canonicalizes back to the bare name), and a spec with every
// parameter set to a non-default value (survives a reparse exactly).
func TestSpecRoundTrip(t *testing.T) {
	for _, g := range Generators() {
		s, err := ParseSpec(g.Name)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		if s.String() != g.Name {
			t.Errorf("%s: bare spec renders %q", g.Name, s.String())
		}

		// All params explicitly at their defaults: the canonical form elides
		// them, so the spec hashes identically to the bare name.
		if len(g.Params) > 0 {
			var parts []string
			for _, p := range g.Params {
				parts = append(parts, p.Name+"="+p.Default)
			}
			withDefaults := g.Name + ":" + strings.Join(parts, ",")
			s, err := ParseSpec(withDefaults)
			if err != nil {
				t.Fatalf("%s: %v", withDefaults, err)
			}
			if s.String() != g.Name {
				t.Errorf("%s: defaulted spec renders %q, want bare %q", withDefaults, s.String(), g.Name)
			}
		}

		// All params at non-default values: String must preserve every one,
		// and reparsing its output must be a fixed point.
		var parts []string
		for _, p := range g.Params {
			parts = append(parts, p.Name+"="+nonDefault(t, g, p))
		}
		if len(parts) == 0 {
			continue
		}
		full := g.Name + ":" + strings.Join(parts, ",")
		s, err = ParseSpec(full)
		if err != nil {
			t.Fatalf("%s: %v", full, err)
		}
		out := s.String()
		for _, p := range g.Params {
			if !strings.Contains(out, p.Name+"=") {
				t.Errorf("%s: rendered spec %q dropped param %q", full, out, p.Name)
			}
		}
		s2, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("reparse %q: %v", out, err)
		}
		if s2.String() != out {
			t.Errorf("%s: reparse not a fixed point: %q -> %q", full, out, s2.String())
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string // substring of the error
	}{
		{"no-such-pattern", "valid: scatter"},
		{"random-mesh:no-such-key=1", "has no parameter"},
		{"random-mesh:msgs=abc", "not an integer"},
		{"random-mesh:msgs=1,msgs=2", "duplicate parameter"},
		{"random-mesh:", "empty parameter list"},
		{"random-mesh:msgs", "malformed parameter"},
		{"all-reduce:algo=butterfly", "not one of ring|tree"},
		{"mix:determinism=x", "not a number"},
		{"mix:think=-5ns", "negative"},
	}
	for _, c := range cases {
		if _, err := ParseSpec(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpec(%q) = %v, want error containing %q", c.spec, err, c.want)
		}
	}
}

// TestSpecDefaultOverlay pins the CLI flag-overlay semantics: Default fills
// only unset parameters, silently skips keys the generator does not have,
// and rejects invalid values for known keys.
func TestSpecDefaultOverlay(t *testing.T) {
	s, err := ParseSpec("random-mesh:msgs=7")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Default("msgs", "50"); err != nil {
		t.Fatal(err)
	}
	if err := s.Default("bytes", "128"); err != nil {
		t.Fatal(err)
	}
	if err := s.Default("rounds", "12"); err != nil { // not in schema: ignored
		t.Fatal(err)
	}
	if got, want := s.String(), "random-mesh:bytes=128,msgs=7"; got != want {
		t.Errorf("overlaid spec = %q, want %q", got, want)
	}
	if err := s.Default("bytes", "not-a-number"); err != nil {
		t.Errorf("already-set key must not re-validate, got %v", err)
	}
	s2, _ := ParseSpec("random-mesh")
	if err := s2.Default("bytes", "junk"); err == nil {
		t.Error("invalid overlay value for a known unset key must error")
	}
}

// TestGenerateEveryFamily builds every registered generator at its schema
// defaults on the golden topology (n=16: a square power of two, so every
// topology contract holds) and checks the structural invariants Generate
// promises: a validating workload with traffic, the right processor count,
// and the canonical spec attached.
func TestGenerateEveryFamily(t *testing.T) {
	for _, name := range Names() {
		wl, err := Generate(name, 16, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if wl.N != 16 {
			t.Errorf("%s: N = %d", name, wl.N)
		}
		if wl.Spec != name {
			t.Errorf("%s: Spec = %q", name, wl.Spec)
		}
		if wl.MessageCount() == 0 {
			t.Errorf("%s: no messages", name)
		}
		if len(wl.StaticPhases) == 0 {
			t.Errorf("%s: no static phases", name)
		}
		// Same spec, same seed, same workload: generators must be pure.
		again, err := Generate(name, 16, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(wl, again) {
			t.Errorf("%s: not deterministic", name)
		}
	}
}

// TestGenerateRecoversConstructorPanics: contract violations inside the
// underlying constructors surface as errors, never panics.
func TestGenerateRecoversConstructorPanics(t *testing.T) {
	cases := []struct {
		spec string
		n    int
	}{
		{"transpose", 15},           // not a square
		{"bit-reverse", 12},         // not a power of two
		{"shift:distance=16", 16},   // self-loop shift
		{"scatter:bytes=-1", 16},    // non-positive size
		{"tiles:layers=20", 16},     // more layers than processors
		{"phased:phases=1", 16},     // too few phases
		{"skewed:shifts=0", 16},     // no shifts
		{"random-mesh:msgs=0", 16},  // no messages
		{"perm-churn:rounds=0", 16}, // no rounds
		{"scatter", 1},              // too few processors
		{"incast:msgs=0", 16},       // no sink messages
		{"bursty:burst=0", 16},      // empty bursts
		{"broadcast:msgs=0", 16},    // no repetitions
		{"gather:msgs=0", 16},       // no messages
		{"all-reduce:bytes=0", 16},  // non-positive size
		{"ordered-mesh:rounds=0", 16} /* no rounds */}
	for _, c := range cases {
		wl, err := Generate(c.spec, c.n, 1)
		if err == nil {
			t.Errorf("Generate(%q, n=%d) built %q, want error", c.spec, c.n, wl.Name)
		}
	}
}

// FuzzWorkloadSpec fuzzes the spec parser: any input either fails to parse
// or canonicalizes to a fixed point (parse → render → parse → render is
// stable, and the canonical form parses back to the same generator).
func FuzzWorkloadSpec(f *testing.F) {
	for _, name := range Names() {
		f.Add(name)
	}
	f.Add("all-reduce:algo=tree,bytes=256")
	f.Add("mix:determinism=0.5,think=1us")
	f.Add("shift:distance=-3")
	f.Add("random-mesh:msgs=7,bytes=128")
	f.Add("perm-churn:rounds=2,msgs=1")
	f.Add("bogus::=,")
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSpec(spec)
		if err != nil {
			return
		}
		canon := s.String()
		s2, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q (of %q) does not reparse: %v", canon, spec, err)
		}
		if s2.String() != canon {
			t.Fatalf("canonicalization unstable: %q -> %q -> %q", spec, canon, s2.String())
		}
		if s2.Name() != s.Name() {
			t.Fatalf("generator changed across round-trip: %q -> %q", s.Name(), s2.Name())
		}
		// Canonicalization may elide params explicitly set to their defaults,
		// so compare resolved values, not the explicitly-set key sets.
		if !reflect.DeepEqual(s.Args(), s2.Args()) {
			t.Fatalf("resolved params changed across round-trip: %q -> %q (explicit %v -> %v)",
				spec, canon, s.setKeys(), s2.setKeys())
		}
	})
}
