package traffic

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pmsnet/internal/sim"
)

// This file is the workload-generator registry: every traffic family the
// simulators can build is registered here under a canonical name with a
// typed parameter schema, and every binary (pmsim, pmsopt, pmsd, figures,
// the experiments harnesses) resolves patterns through it. A generator is
// addressed by a spec string,
//
//	name[:key=value,key=value,...]
//
// e.g. "random-mesh", "all-reduce:algo=ring,bytes=64". ParseSpec validates
// the name and every key/value against the schema; Spec.String renders the
// canonical form (schema parameter order, canonical value encodings,
// defaults elided), so parse↔string round-trips. Generated workloads carry
// their canonical spec in Workload.Spec, which the PMSTRACE serialization —
// and therefore Workload.Hash — folds in.

// ParamKind is the type of a generator parameter.
type ParamKind int

// Parameter kinds.
const (
	// KindInt is a (possibly negative) integer, e.g. "64" or "-3".
	KindInt ParamKind = iota
	// KindFloat is a decimal number, e.g. "0.85".
	KindFloat
	// KindDuration is a time.ParseDuration string ("150ns", "1.2us") or a
	// bare integer nanosecond count.
	KindDuration
	// KindEnum is one of a fixed set of strings.
	KindEnum
)

// String implements fmt.Stringer.
func (k ParamKind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindDuration:
		return "duration"
	case KindEnum:
		return "enum"
	default:
		return fmt.Sprintf("ParamKind(%d)", int(k))
	}
}

// Param is one schema entry: a typed, defaulted generator parameter.
type Param struct {
	Name string
	Kind ParamKind
	// Default is the canonical encoding of the parameter's default value.
	Default string
	// Enum lists the allowed values of a KindEnum parameter.
	Enum []string
	// Doc is a one-line description for usage text.
	Doc string
}

// Args carries a generator call's fully resolved parameter values: every
// schema parameter is present, explicit values overriding defaults. The
// typed accessors panic on a missing name or an unparseable value — both are
// registry bugs, impossible for values that went through ParseSpec.
type Args struct {
	vals map[string]string
}

// Int returns an integer parameter.
func (a Args) Int(name string) int {
	v, err := strconv.Atoi(a.get(name))
	if err != nil {
		panic(fmt.Sprintf("traffic: registry bug: param %q: %v", name, err))
	}
	return v
}

// Float returns a float parameter.
func (a Args) Float(name string) float64 {
	v, err := strconv.ParseFloat(a.get(name), 64)
	if err != nil {
		panic(fmt.Sprintf("traffic: registry bug: param %q: %v", name, err))
	}
	return v
}

// Duration returns a duration parameter in simulated nanoseconds.
func (a Args) Duration(name string) sim.Time {
	d, err := parseDuration(a.get(name))
	if err != nil {
		panic(fmt.Sprintf("traffic: registry bug: param %q: %v", name, err))
	}
	return d
}

// Enum returns an enum parameter's value.
func (a Args) Enum(name string) string { return a.get(name) }

func (a Args) get(name string) string {
	v, ok := a.vals[name]
	if !ok {
		panic(fmt.Sprintf("traffic: registry bug: no param %q", name))
	}
	return v
}

// Generator is one registered workload family.
type Generator struct {
	// Name is the canonical spec name (lowercase, '-'-separated).
	Name string
	// Doc is a one-line description for usage text.
	Doc string
	// Params is the parameter schema, in canonical (rendering) order.
	Params []Param
	// Build constructs the workload. Contract violations (bad processor
	// counts, non-square N, ...) panic like the underlying constructors do;
	// Spec.Generate converts the panic into an error.
	Build func(n int, args Args, seed int64) *Workload
}

// Schema renders the parameter schema as "key=default,key=default" for
// usage text; an empty string when the generator takes no parameters.
func (g *Generator) Schema() string {
	parts := make([]string, len(g.Params))
	for i, p := range g.Params {
		parts[i] = p.Name + "=" + p.Default
	}
	return strings.Join(parts, ",")
}

// param looks a schema entry up by name.
func (g *Generator) param(name string) (Param, bool) {
	for _, p := range g.Params {
		if p.Name == name {
			return p, true
		}
	}
	return Param{}, false
}

var registry struct {
	byName map[string]*Generator
	order  []string
}

// reservedNames are spec names the surrounding tooling claims for itself:
// "list" prints the vocabulary in the CLIs, "trace" selects an inline
// PMSTRACE program in pmsd, and "panic"/"sleep" are pmsd's test patterns.
var reservedNames = map[string]bool{"list": true, "trace": true, "panic": true, "sleep": true}

// Register adds a generator to the registry. It panics on an invalid
// schema or a duplicate name — registration happens at init time and a bad
// entry is a programming error.
func Register(g *Generator) {
	if registry.byName == nil {
		registry.byName = map[string]*Generator{}
	}
	if g.Name == "" || strings.ContainsAny(g.Name, ":,= \t\n") {
		panic(fmt.Sprintf("traffic: invalid generator name %q", g.Name))
	}
	if reservedNames[g.Name] {
		panic(fmt.Sprintf("traffic: generator name %q is reserved", g.Name))
	}
	if _, dup := registry.byName[g.Name]; dup {
		panic(fmt.Sprintf("traffic: duplicate generator %q", g.Name))
	}
	if g.Build == nil {
		panic(fmt.Sprintf("traffic: generator %q has no Build", g.Name))
	}
	seen := map[string]bool{}
	for _, p := range g.Params {
		if p.Name == "" || strings.ContainsAny(p.Name, ":,= \t\n") {
			panic(fmt.Sprintf("traffic: generator %q: invalid param name %q", g.Name, p.Name))
		}
		if seen[p.Name] {
			panic(fmt.Sprintf("traffic: generator %q: duplicate param %q", g.Name, p.Name))
		}
		seen[p.Name] = true
		if canon, err := canonicalValue(p, p.Default); err != nil || canon != p.Default {
			panic(fmt.Sprintf("traffic: generator %q: param %q default %q is not canonical (err=%v)",
				g.Name, p.Name, p.Default, err))
		}
	}
	registry.byName[g.Name] = g
	registry.order = append(registry.order, g.Name)
}

// Names lists the registered generator names in registration order —
// the canonical vocabulary the CLIs print for `-pattern list`.
func Names() []string {
	out := make([]string, len(registry.order))
	copy(out, registry.order)
	return out
}

// Lookup finds a generator by name.
func Lookup(name string) (*Generator, bool) {
	g, ok := registry.byName[name]
	return g, ok
}

// Generators lists the registered generators in registration order.
func Generators() []*Generator {
	out := make([]*Generator, len(registry.order))
	for i, name := range registry.order {
		out[i] = registry.byName[name]
	}
	return out
}

// Spec is a parsed generator invocation: a registered generator plus the
// explicitly set parameter values (canonical encodings).
type Spec struct {
	gen *Generator
	set map[string]string
}

// ParseSpec parses "name[:key=value,...]" against the registry, validating
// the generator name, every key against its schema, and every value against
// its parameter kind.
func ParseSpec(spec string) (*Spec, error) {
	name, rest, hasParams := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	g, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("traffic: unknown pattern %q (valid: %s)", name, strings.Join(Names(), ", "))
	}
	s := &Spec{gen: g, set: map[string]string{}}
	if !hasParams {
		return s, nil
	}
	if strings.TrimSpace(rest) == "" {
		return nil, fmt.Errorf("traffic: pattern %q: empty parameter list after ':'", name)
	}
	for _, item := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(item, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return nil, fmt.Errorf("traffic: pattern %q: malformed parameter %q (want key=value)", name, item)
		}
		p, ok := g.param(key)
		if !ok {
			return nil, fmt.Errorf("traffic: pattern %q has no parameter %q (schema: %s)", name, key, g.Schema())
		}
		if _, dup := s.set[key]; dup {
			return nil, fmt.Errorf("traffic: pattern %q: duplicate parameter %q", name, key)
		}
		canon, err := canonicalValue(p, val)
		if err != nil {
			return nil, fmt.Errorf("traffic: pattern %q: parameter %q: %w", name, key, err)
		}
		s.set[key] = canon
	}
	return s, nil
}

// Name returns the generator name.
func (s *Spec) Name() string { return s.gen.Name }

// String renders the canonical spec: the generator name plus every
// explicitly set parameter whose value differs from its default, in schema
// order with canonical value encodings. ParseSpec(s.String()) reproduces s
// exactly, and two specs that build identical workloads render identically.
func (s *Spec) String() string {
	var parts []string
	for _, p := range s.gen.Params {
		if v, ok := s.set[p.Name]; ok && v != p.Default {
			parts = append(parts, p.Name+"="+v)
		}
	}
	if len(parts) == 0 {
		return s.gen.Name
	}
	return s.gen.Name + ":" + strings.Join(parts, ",")
}

// Default sets a parameter only when the spec did not already set it — the
// overlay the CLIs use to fold flag values under an explicit spec. Unknown
// keys are ignored (a shared flag like -msgs simply has no effect on a
// generator without a msgs parameter); invalid values for known keys error.
func (s *Spec) Default(key, value string) error {
	p, ok := s.gen.param(key)
	if !ok {
		return nil
	}
	if _, isSet := s.set[key]; isSet {
		return nil
	}
	canon, err := canonicalValue(p, value)
	if err != nil {
		return fmt.Errorf("traffic: pattern %q: parameter %q: %w", s.gen.Name, key, err)
	}
	s.set[key] = canon
	return nil
}

// Args resolves the call's parameter values: explicit over defaults.
func (s *Spec) Args() Args {
	vals := make(map[string]string, len(s.gen.Params))
	for _, p := range s.gen.Params {
		vals[p.Name] = p.Default
	}
	for k, v := range s.set {
		vals[k] = v
	}
	return Args{vals: vals}
}

// Generate builds the workload for n processors at the given seed. The
// underlying constructors enforce their contracts by panicking; Generate
// converts those panics into errors so callers (CLIs, the pmsd admission
// path) stay panic-free. The result carries the canonical spec in
// Workload.Spec and is validated before return.
func (s *Spec) Generate(n int, seed int64) (wl *Workload, err error) {
	defer func() {
		if r := recover(); r != nil {
			wl, err = nil, fmt.Errorf("traffic: pattern %q: %v", s.String(), r)
		}
	}()
	wl = s.gen.Build(n, s.Args(), seed)
	wl.Spec = s.String()
	if verr := wl.Validate(); verr != nil {
		return nil, fmt.Errorf("traffic: pattern %q built an invalid workload: %w", s.String(), verr)
	}
	return wl, nil
}

// Generate parses a spec and builds its workload in one step.
func Generate(spec string, n int, seed int64) (*Workload, error) {
	s, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return s.Generate(n, seed)
}

// MustGenerate is Generate for harnesses with known-good specs.
func MustGenerate(spec string, n int, seed int64) *Workload {
	wl, err := Generate(spec, n, seed)
	if err != nil {
		panic(err)
	}
	return wl
}

// canonicalValue validates a raw value against a parameter and returns its
// canonical encoding.
func canonicalValue(p Param, raw string) (string, error) {
	switch p.Kind {
	case KindInt:
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil {
			return "", fmt.Errorf("%q is not an integer", raw)
		}
		return strconv.FormatInt(v, 10), nil
	case KindFloat:
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return "", fmt.Errorf("%q is not a number", raw)
		}
		return strconv.FormatFloat(v, 'g', -1, 64), nil
	case KindDuration:
		d, err := parseDuration(raw)
		if err != nil {
			return "", err
		}
		return time.Duration(d).String(), nil
	case KindEnum:
		for _, e := range p.Enum {
			if raw == e {
				return raw, nil
			}
		}
		return "", fmt.Errorf("%q is not one of %s", raw, strings.Join(p.Enum, "|"))
	default:
		return "", fmt.Errorf("unknown parameter kind %d", int(p.Kind))
	}
}

// parseDuration accepts a time.ParseDuration string or a bare integer
// nanosecond count, and rejects negatives (no workload delay may be
// negative).
func parseDuration(raw string) (sim.Time, error) {
	if ns, err := strconv.ParseInt(raw, 10, 64); err == nil {
		if ns < 0 {
			return 0, fmt.Errorf("duration %q is negative", raw)
		}
		return sim.Time(ns), nil
	}
	d, err := time.ParseDuration(raw)
	if err != nil {
		return 0, fmt.Errorf("%q is not a duration", raw)
	}
	if d < 0 {
		return 0, fmt.Errorf("duration %q is negative", raw)
	}
	return sim.Time(d.Nanoseconds()), nil
}
