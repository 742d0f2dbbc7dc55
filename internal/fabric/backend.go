// Package fabric models the passive switching fabric of the TDM network.
//
// The fabric has no buffering and no control logic of its own (paper §4): it
// realizes whatever input→output mapping its configuration register holds.
// The register is not modeled; the scheduler's slot index is the only copy
// of a slot's configuration. What the fabric decides is which
// configurations it can carry. That is a rule checked where a configuration
// enters a slot — the scheduler's CanEstablish hook and the preloader's
// build-time check — not at every slot boundary.
package fabric

import (
	"fmt"

	"pmsnet/internal/multistage"
	"pmsnet/internal/topology"
	"pmsnet/internal/vocab"
)

// Kind identifies a switching-fabric backend. The zero value is the paper's
// baseline crossbar, so zero-valued configurations keep their meaning.
type Kind int

// Fabric backends.
const (
	// KindCrossbar is the paper's baseline: a single-stage LVDS crosspoint
	// where any partial permutation is realizable.
	KindCrossbar Kind = iota
	// KindOmega is a log2(N)-stage Omega network: cheaper hardware, but
	// blocking — the scheduler may only establish connections that keep each
	// slot's configuration Omega-realizable, and preload decomposition runs
	// under the same constraint (paper §4's "fabrics that have limited
	// permutation capabilities"). Requires N to be a power of two.
	KindOmega
)

// Kinds is the fabric vocabulary (the pmsim -fabric flag), indexed by Kind.
var Kinds = vocab.New[Kind]("fabric", "crossbar", "omega")

// String implements fmt.Stringer.
func (k Kind) String() string { return Kinds.Name(k) }

// Backend is a pluggable switching fabric: the routing/blocking rule of the
// technology behind the configuration register. The TDM network consults
// CanRealize on blocking fabrics (through the scheduler's CanEstablish hook
// and the preloader) so no slot ever holds a configuration the fabric
// cannot carry.
type Backend interface {
	// Rearrangeable reports whether every partial permutation is realizable.
	// On a rearrangeable backend the scheduler needs no establishment
	// constraint, and callers skip CanRealize.
	Rearrangeable() bool
	// CanRealize reports whether the configuration, a port map over the
	// ports (cfg[u] is the output input u connects to, or -1), is a partial
	// permutation that routes through the fabric — the blocking check of a
	// blocking fabric. A rearrangeable fabric routes every partial
	// permutation, so it answers true without looking. It allocates nothing.
	CanRealize(cfg []int32) bool
	// Decompose splits a working set into realizable configurations, as port
	// maps, for the preload controller: an exact edge coloring on
	// rearrangeable fabrics, a first-fit under CanRealize on blocking ones.
	Decompose(ws *topology.WorkingSet) ([][]int32, error)
}

// Check reports the error NewBackend(kind, n) would return, without building
// the backend: it allocates nothing on success, so a configuration check can
// vet a fabric at any N.
func Check(kind Kind, n int) error {
	switch kind {
	case KindCrossbar:
		if n <= 0 {
			return fmt.Errorf("fabric: invalid port count %d", n)
		}
		return nil
	case KindOmega:
		return multistage.CheckOmega(n)
	default:
		return fmt.Errorf("fabric: unknown fabric kind %d", int(kind))
	}
}

// NewBackend builds the backend for a kind and port count. Construction
// errors are Check's: they surface the underlying fabric's constraint (e.g.
// the power-of-two requirement of the Omega network).
func NewBackend(kind Kind, n int) (Backend, error) {
	if err := Check(kind, n); err != nil {
		return nil, err
	}
	if kind == KindOmega {
		o, _ := multistage.NewOmega(n) // Check accepted n
		return omegaBackend{o, o.NewState()}, nil
	}
	return crossbarBackend{}, nil
}

// crossbarBackend is the paper's baseline crossbar. It keeps no state.
type crossbarBackend struct{}

func (crossbarBackend) Rearrangeable() bool     { return true }
func (crossbarBackend) CanRealize([]int32) bool { return true }

// Decompose is the exact bipartite edge coloring: the working set's degree
// in configurations.
func (crossbarBackend) Decompose(ws *topology.WorkingSet) ([][]int32, error) {
	return topology.Decompose(ws), nil
}

// omegaBackend is the blocking Omega network.
type omegaBackend struct {
	o *multistage.Omega
	// state is the switch-state scratch of CanRealize, reused by every call.
	state []uint8
}

func (b omegaBackend) Rearrangeable() bool { return false }

func (b omegaBackend) CanRealize(cfg []int32) bool { return b.o.CanRealize(cfg, b.state) }

// Decompose is the first-fit under the Omega's realizability check.
func (b omegaBackend) Decompose(ws *topology.WorkingSet) ([][]int32, error) {
	return multistage.DecomposeOmega(ws, b.o)
}
