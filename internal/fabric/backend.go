package fabric

import (
	"fmt"
	"strings"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/multistage"
	"pmsnet/internal/topology"
)

// Kind identifies a switching-fabric backend. The zero value is the paper's
// baseline crossbar, so zero-valued configurations keep their meaning.
type Kind int

// Fabric backends.
const (
	// KindCrossbar is the paper's baseline: a single-stage crosspoint where
	// any partial permutation is realizable.
	KindCrossbar Kind = iota
	// KindOmega is a log2(N)-stage Omega network: cheaper hardware, but
	// blocking — the scheduler may only establish connections that keep each
	// slot's configuration Omega-realizable, and preload decomposition runs
	// under the same constraint (paper §4's "fabrics that have limited
	// permutation capabilities"). Requires N to be a power of two.
	KindOmega
	// KindClos is a three-stage Clos network in its canonical m = n
	// factoring: rearrangeably non-blocking (Clos 1953), so every slot
	// configuration routes, at a fraction of the crossbar's crosspoint count.
	// Requires N to have a divisor d with d*d >= N (always true).
	KindClos
	// KindBenes is the 2·log2(N)−1-stage Benes network: rearrangeably
	// non-blocking via the looping algorithm, accepting every crossbar
	// configuration. Requires N to be a power of two.
	KindBenes
)

// kindNames holds the canonical lower-case names, indexed by Kind.
var kindNames = [...]string{"crossbar", "omega", "clos", "benes"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindNames returns the canonical fabric vocabulary in declaration order.
func KindNames() []string {
	out := make([]string, len(kindNames))
	copy(out, kindNames[:])
	return out
}

// ParseKind is the inverse of Kind.String.
func ParseKind(s string) (Kind, error) {
	for i, name := range kindNames {
		if s == name {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("fabric: unknown fabric %q (valid: %s)", s, strings.Join(kindNames[:], ", "))
}

// Backend is a pluggable switching fabric: a configuration register the
// scheduler writes at every slot boundary, plus the routing/blocking
// semantics of the technology behind it. The TDM network drives any Backend;
// the scheduler consults CanRealize (through its CanEstablish hook) on
// blocking fabrics so it never produces a configuration the fabric cannot
// carry.
type Backend interface {
	// Kind identifies the backend.
	Kind() Kind
	// Ports returns the port count N.
	Ports() int
	// Rearrangeable reports whether every partial permutation is realizable.
	// On a rearrangeable backend CanRealize never fails for a valid partial
	// permutation, so the scheduler needs no establishment constraint.
	Rearrangeable() bool
	// CanRealize reports whether the configuration routes through the fabric
	// — the blocking check.
	CanRealize(cfg *bitmat.Matrix) bool
	// Apply loads the configuration into the register for the next slot,
	// routing it through the fabric. It fails on a malformed configuration or
	// one the fabric cannot realize — a scheduler bug either way.
	Apply(cfg *bitmat.Matrix) error
	// Applied returns how many configurations have been loaded so far.
	Applied() int
	// Decompose splits a working set into realizable configurations for the
	// preload controller: an exact edge coloring on rearrangeable fabrics, a
	// first-fit under CanRealize on blocking ones.
	Decompose(ws *topology.WorkingSet) ([]*bitmat.Matrix, error)
}

// NewBackend builds the backend for a kind and port count. Construction
// errors surface the underlying fabric's constraint (e.g. the power-of-two
// requirement of Omega and Benes networks).
func NewBackend(kind Kind, n int) (Backend, error) {
	switch kind {
	case KindCrossbar:
		return crossbarBackend{NewCrossbar(n, LVDS, 0)}, nil
	case KindOmega:
		o, err := multistage.NewOmega(n)
		if err != nil {
			return nil, err
		}
		return &multistageBackend{
			Crossbar:   NewCrossbar(n, LVDS, 0),
			kind:       KindOmega,
			canRealize: o.CanRealize,
			decompose: func(ws *topology.WorkingSet) ([]*bitmat.Matrix, error) {
				return multistage.DecomposeOmega(ws, o)
			},
		}, nil
	case KindClos:
		c, err := multistage.DefaultClos(n)
		if err != nil {
			return nil, err
		}
		canRealize := func(cfg *bitmat.Matrix) bool {
			_, err := c.Route(cfg)
			return err == nil
		}
		b := &multistageBackend{
			Crossbar:      NewCrossbar(n, LVDS, 0),
			kind:          KindClos,
			rearrangeable: c.Rearrangeable(),
			canRealize:    canRealize,
		}
		if b.rearrangeable {
			b.decompose = decomposeExact
		} else {
			b.decompose = func(ws *topology.WorkingSet) ([]*bitmat.Matrix, error) {
				return multistage.DecomposeRealizable(ws, c.Ports(), "clos", canRealize)
			}
		}
		return b, nil
	case KindBenes:
		bn, err := multistage.NewBenes(n)
		if err != nil {
			return nil, err
		}
		return &multistageBackend{
			Crossbar:      NewCrossbar(n, LVDS, 0),
			kind:          KindBenes,
			rearrangeable: true,
			canRealize: func(cfg *bitmat.Matrix) bool {
				_, err := bn.Route(cfg)
				return err == nil
			},
			decompose: decomposeExact,
		}, nil
	default:
		return nil, fmt.Errorf("fabric: unknown fabric kind %d", int(kind))
	}
}

// decomposeExact is the rearrangeable-fabric decomposition: the exact
// bipartite edge coloring, identical to the crossbar's.
func decomposeExact(ws *topology.WorkingSet) ([]*bitmat.Matrix, error) {
	return topology.Decompose(ws), nil
}

// crossbarBackend adapts the baseline Crossbar to the Backend interface.
type crossbarBackend struct {
	*Crossbar
}

func (b crossbarBackend) Kind() Kind          { return KindCrossbar }
func (b crossbarBackend) Rearrangeable() bool { return true }

func (b crossbarBackend) CanRealize(cfg *bitmat.Matrix) bool {
	return cfg.Rows() == b.Ports() && cfg.Cols() == b.Ports() && cfg.IsPartialPermutation()
}

func (b crossbarBackend) Decompose(ws *topology.WorkingSet) ([]*bitmat.Matrix, error) {
	return decomposeExact(ws)
}

// multistageBackend wraps a multistage network behind a crossbar-style
// configuration register: Apply validates the partial permutation through the
// register, then (on blocking fabrics) routes it through the stage model.
type multistageBackend struct {
	*Crossbar
	kind          Kind
	rearrangeable bool
	canRealize    func(*bitmat.Matrix) bool
	decompose     func(*topology.WorkingSet) ([]*bitmat.Matrix, error)
}

func (b *multistageBackend) Kind() Kind          { return b.kind }
func (b *multistageBackend) Rearrangeable() bool { return b.rearrangeable }

func (b *multistageBackend) CanRealize(cfg *bitmat.Matrix) bool { return b.canRealize(cfg) }

func (b *multistageBackend) Apply(cfg *bitmat.Matrix) error {
	if err := b.Crossbar.Apply(cfg); err != nil {
		return err
	}
	// Rearrangeable stages realize every partial permutation, which the
	// register just validated; only blocking fabrics need the routing check.
	if !b.rearrangeable && !b.canRealize(cfg) {
		return fmt.Errorf("fabric: configuration is not realizable on the %s fabric", b.kind)
	}
	return nil
}

func (b *multistageBackend) Decompose(ws *topology.WorkingSet) ([]*bitmat.Matrix, error) {
	return b.decompose(ws)
}
