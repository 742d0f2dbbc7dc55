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
	// KindCrossbar is the paper's baseline: a single-stage crosspoint where
	// any partial permutation is realizable.
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

// Backend is a pluggable switching fabric: a configuration register loaded
// with the slot's connection list at every slot boundary, plus the
// routing/blocking semantics of the technology behind it. The TDM network
// drives any Backend; the scheduler consults CanRealize (through its
// CanEstablish hook) on blocking fabrics so it never produces a
// configuration the fabric cannot carry.
type Backend interface {
	// Kind identifies the backend.
	Kind() Kind
	// Ports returns the port count N.
	Ports() int
	// Rearrangeable reports whether every partial permutation is realizable.
	// On a rearrangeable backend CanRealize never fails for a valid partial
	// permutation, so the scheduler needs no establishment constraint.
	Rearrangeable() bool
	// CanRealize reports whether the configuration, a port map over the
	// ports (cfg[u] is the output input u connects to, or -1), is a partial
	// permutation that routes through the fabric — the blocking check. It
	// allocates nothing.
	CanRealize(cfg []int32) bool
	// Apply loads a slot's connections, in ascending source order, into the
	// register for the next slot, routing them through the fabric. It fails
	// on a list that is not a partial permutation of the ports or that the
	// fabric cannot realize — a scheduler bug either way — and then leaves
	// the register unchanged. Every load is checked, in O(connections) on
	// the crossbar.
	Apply(conns []topology.Conn) error
	// Applied returns how many configurations have been loaded so far.
	Applied() int
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
	xbar := NewCrossbar(n)
	if kind == KindOmega {
		o, _ := multistage.NewOmega(n) // Check accepted n
		return omegaBackend{xbar, o, o.NewState()}, nil
	}
	return crossbarBackend{xbar}, nil
}

// crossbarBackend adapts the baseline Crossbar to the Backend interface.
type crossbarBackend struct {
	*Crossbar
}

func (b crossbarBackend) Kind() Kind          { return KindCrossbar }
func (b crossbarBackend) Rearrangeable() bool { return true }

func (b crossbarBackend) CanRealize(cfg []int32) bool { return b.isPortMap(cfg) }

// Decompose is the exact bipartite edge coloring: the working set's degree
// in configurations.
func (b crossbarBackend) Decompose(ws *topology.WorkingSet) ([][]int32, error) {
	return topology.Decompose(ws), nil
}

// omegaBackend is the blocking Omega network behind a crossbar-style
// configuration register: Apply checks the partial permutation through the
// register, routes the list through the stages, and only then loads it.
type omegaBackend struct {
	*Crossbar
	o *multistage.Omega
	// state is the switch-state scratch of Apply and CanRealize, reused by
	// every call.
	state []uint8
}

func (b omegaBackend) Kind() Kind          { return KindOmega }
func (b omegaBackend) Rearrangeable() bool { return false }

func (b omegaBackend) CanRealize(cfg []int32) bool { return b.o.CanRealize(cfg, b.state) }

func (b omegaBackend) Apply(conns []topology.Conn) error {
	if err := b.validate(conns); err != nil {
		return err
	}
	if !b.o.CanRealizeConns(conns, b.state) {
		return fmt.Errorf("fabric: configuration is not realizable on the omega fabric")
	}
	b.commit(conns)
	return nil
}

// Decompose is the first-fit under the Omega's realizability check.
func (b omegaBackend) Decompose(ws *topology.WorkingSet) ([][]int32, error) {
	return multistage.DecomposeOmega(ws, b.o)
}
