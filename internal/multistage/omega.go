// Package multistage models the Omega network, a multistage fabric with the
// "limited permutation capabilities" of paper §4 — the extension direction
// named in its conclusions ("we are also working on extending the design to
// switching fabrics other than crossbars").
//
// An Omega network is log2(N) stages of 2x2 switches behind perfect-shuffle
// wiring. It is self-routing and cheap, but blocking: only a fraction of the
// partial permutations a crossbar realizes are Omega-realizable.
// Configurations destined for an Omega fabric must respect these constraints
// — which is exactly where TDM helps: a working set that does not fit one
// Omega pass decomposes into several Omega-realizable configurations
// multiplexed over time (DecomposeOmega, built on FirstFit).
//
// Rearrangeably non-blocking multistage fabrics (Clos with m >= n, Benes)
// realize every crossbar configuration, so as a TDM backend they behave
// exactly like the crossbar and are not modelled.
package multistage

import (
	"fmt"
	"math/bits"

	"pmsnet/internal/topology"
)

// Omega is an N-port Omega network: k = log2(N) identical stages, each a
// perfect shuffle followed by N/2 two-by-two switches.
type Omega struct {
	n      int
	stages int
}

// CheckOmega reports whether n is a valid Omega network size: a power of
// two, at least 2. It is NewOmega's check, without building the network.
func CheckOmega(n int) error {
	if n < 2 || n&(n-1) != 0 {
		return fmt.Errorf("multistage: omega size %d must be a power of two >= 2", n)
	}
	return nil
}

// NewOmega builds an Omega network; n must pass CheckOmega.
func NewOmega(n int) (*Omega, error) {
	if err := CheckOmega(n); err != nil {
		return nil, err
	}
	return &Omega{n: n, stages: bits.Len(uint(n)) - 1}, nil
}

// Ports returns N.
func (o *Omega) Ports() int { return o.n }

// Stages returns log2(N).
func (o *Omega) Stages() int { return o.stages }

// Settings holds one switch state per stage and switch: false = through,
// true = cross. Only switches on active paths are meaningful; the Route
// simulation treats unconstrained switches as through.
type Settings [][]bool

// shuffle is the perfect-shuffle permutation: rotate the log2(N)-bit address
// left by one.
func (o *Omega) shuffle(pos int) int {
	return ((pos << 1) | (pos >> (o.stages - 1))) & (o.n - 1)
}

// Switch states recorded by route; a switch no path crosses stays free.
const (
	switchFree uint8 = iota
	switchThrough
	switchCross
)

// blockedConn names the first connection route could not thread.
type blockedConn struct{ u, v, stage, sw int }

// route threads count connections along their unique paths in sequence
// order, fixing state[s*N/2+sw] for each switch a path crosses; state starts
// all switchFree. at(i) gives the i-th connection as input u and output v
// (v < 0: none); together they must form a partial permutation of the
// network's ports. route reports false with the first connection that needs
// a switch already fixed the other way.
func (o *Omega) route(count int, at func(i int) (u, v int), state []uint8) (blockedConn, bool) {
	half := o.n / 2
	for i := 0; i < count; i++ {
		u, v := at(i)
		if v < 0 {
			continue
		}
		pos := u
		for s := 0; s < o.stages; s++ {
			pos = o.shuffle(pos)
			sw := pos / 2
			inLine := pos & 1
			// Destination-tag routing: stage s consumes the destination's
			// bit (stages-1-s); the path must exit the switch on that line.
			outLine := (v >> (o.stages - 1 - s)) & 1
			want := switchThrough
			if inLine != outLine {
				want = switchCross
			}
			if st := &state[s*half+sw]; *st == switchFree {
				*st = want
			} else if *st != want {
				return blockedConn{u, v, s, sw}, false
			}
			pos = sw*2 + outLine
		}
		if pos != v {
			// The destination-tag construction lands on v by construction;
			// a mismatch means the wiring model is broken.
			panic(fmt.Sprintf("multistage: path from %d ended at %d, want %d", u, pos, v))
		}
	}
	return blockedConn{}, true
}

// NewState returns switch-state scratch for CanRealize:
// one entry per switch, Stages()*Ports()/2 in all.
func (o *Omega) NewState() []uint8 { return make([]uint8, o.stages*o.n/2) }

// CanRealize reports whether the configuration, a port map over the
// network's ports (cfg[u] is the output input u connects to, or -1), is
// Omega-realizable. Two inputs mapped to one output always collide in some
// switch, so the routing also rejects a map that is not a partial
// permutation. state is NewState's scratch; it is cleared and overwritten,
// so passing the same slice every call keeps the check allocation-free.
func (o *Omega) CanRealize(cfg []int32, state []uint8) bool {
	if len(cfg) != o.n {
		return false
	}
	for _, v := range cfg {
		if v < -1 || int(v) >= o.n {
			return false
		}
	}
	clear(state)
	_, ok := o.route(o.n, func(u int) (int, int) { return u, int(cfg[u]) }, state)
	return ok
}

// DecomposeOmega splits a working set into Omega-realizable configurations —
// FirstFit under the Omega network's realizability oracle.
func DecomposeOmega(ws *topology.WorkingSet, o *Omega) ([][]int32, error) {
	if ws.Ports() != o.n {
		return nil, fmt.Errorf("multistage: working set spans %d ports, omega has %d", ws.Ports(), o.n)
	}
	state := o.NewState()
	return FirstFit(o.n, ws.Conns(), func(cfg []int32) bool { return o.CanRealize(cfg, state) }), nil
}
