// Package multistage models multistage interconnection fabrics — the
// "fabrics with limited permutation capabilities" of paper §4, and the
// extension direction named in its conclusions ("we are also working on
// extending the design to switching fabrics other than crossbars").
//
// Two classic fabrics are implemented:
//
//   - Omega: log2(N) stages of 2x2 switches behind perfect-shuffle wiring.
//     Self-routing and cheap, but blocking: only a fraction of the partial
//     permutations a crossbar realizes are Omega-realizable. Configurations
//     destined for an Omega fabric must respect these constraints — which is
//     exactly where TDM helps: a working set that does not fit one Omega
//     pass decomposes into several Omega-realizable configurations
//     multiplexed over time (DecomposeOmega).
//
//   - Benes: the 2·log2(N)−1-stage rearrangeably non-blocking network. The
//     looping algorithm routes any full or partial permutation, so a Benes
//     fabric accepts every crossbar configuration at about twice the stage
//     count.
package multistage

import (
	"fmt"
	"math/bits"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/topology"
)

// Omega is an N-port Omega network: k = log2(N) identical stages, each a
// perfect shuffle followed by N/2 two-by-two switches.
type Omega struct {
	n      int
	stages int
}

// NewOmega builds an Omega network; n must be a power of two, at least 2.
func NewOmega(n int) (*Omega, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("multistage: omega size %d must be a power of two >= 2", n)
	}
	return &Omega{n: n, stages: bits.Len(uint(n)) - 1}, nil
}

// Ports returns N.
func (o *Omega) Ports() int { return o.n }

// Stages returns log2(N).
func (o *Omega) Stages() int { return o.stages }

// SwitchesPerStage returns N/2.
func (o *Omega) SwitchesPerStage() int { return o.n / 2 }

// Settings holds one switch state per stage and switch: false = through,
// true = cross. Only switches on active paths are meaningful; the Route
// simulation treats unconstrained switches as through.
type Settings [][]bool

// shuffle is the perfect-shuffle permutation: rotate the log2(N)-bit address
// left by one.
func (o *Omega) shuffle(pos int) int {
	return ((pos << 1) | (pos >> (o.stages - 1))) & (o.n - 1)
}

// Route computes switch settings realizing the configuration (a partial
// permutation matrix) and the blocked connections, if any. Omega networks
// are self-routing: input i's path to output j is unique, so Route fails
// exactly when two paths need the same switch output line or force one
// switch into both states at once. Connections are admitted in ascending
// input order; on conflict the later connection is reported blocked and the
// routing fails.
func (o *Omega) Route(cfg *bitmat.Matrix) (Settings, error) {
	if cfg.Rows() != o.n || cfg.Cols() != o.n {
		return nil, fmt.Errorf("multistage: configuration is %dx%d, omega has %d ports", cfg.Rows(), cfg.Cols(), o.n)
	}
	if !cfg.IsPartialPermutation() {
		return nil, fmt.Errorf("multistage: configuration is not a partial permutation")
	}
	half := o.n / 2
	state := make([]uint8, o.stages*half)
	if b, ok := o.route(cfg, state); !ok {
		return nil, fmt.Errorf("multistage: connection %d->%d blocked at stage %d switch %d", b.u, b.v, b.stage, b.sw)
	}
	settings := make(Settings, o.stages)
	for s := range settings {
		settings[s] = make([]bool, half)
		for sw := range settings[s] {
			settings[s][sw] = state[s*half+sw] == switchCross
		}
	}
	return settings, nil
}

// Switch states recorded by route; a switch no path crosses stays free.
const (
	switchFree uint8 = iota
	switchThrough
	switchCross
)

// blockedConn names the first connection route could not thread.
type blockedConn struct{ u, v, stage, sw int }

// route threads every connection of cfg, a partial permutation of the
// network's shape, along its unique path in ascending input order, fixing
// state[s*N/2+sw] for each switch it crosses. It reports false with the
// first connection that needs a switch already fixed the other way.
func (o *Omega) route(cfg *bitmat.Matrix, state []uint8) (blockedConn, bool) {
	half := o.n / 2
	for u := 0; u < o.n; u++ {
		v := cfg.FirstInRow(u)
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

// CanRealize reports whether the configuration is Omega-realizable. It runs
// Route's admission without building the settings, so the scheduler's
// per-establish realizability probe costs one allocation.
func (o *Omega) CanRealize(cfg *bitmat.Matrix) bool {
	if cfg.Rows() != o.n || cfg.Cols() != o.n || !cfg.IsPartialPermutation() {
		return false
	}
	_, ok := o.route(cfg, make([]uint8, o.stages*o.n/2))
	return ok
}

// Eval traces input u through the settings and returns the output it
// reaches. Unconstrained switches behave as through. It panics on
// out-of-range inputs or malformed settings; it is the verification path
// for Route.
func (o *Omega) Eval(settings Settings, u int) int {
	if u < 0 || u >= o.n {
		panic(fmt.Sprintf("multistage: input %d outside [0,%d)", u, o.n))
	}
	if len(settings) != o.stages {
		panic(fmt.Sprintf("multistage: settings have %d stages, want %d", len(settings), o.stages))
	}
	pos := u
	for s := 0; s < o.stages; s++ {
		pos = o.shuffle(pos)
		sw := pos / 2
		if len(settings[s]) != o.n/2 {
			panic(fmt.Sprintf("multistage: stage %d has %d switches, want %d", s, len(settings[s]), o.n/2))
		}
		line := pos & 1
		if settings[s][sw] {
			line ^= 1
		}
		pos = sw*2 + line
	}
	return pos
}

// DecomposeOmega splits a working set into Omega-realizable configurations —
// DecomposeRealizable under the Omega network's realizability oracle.
func DecomposeOmega(ws *topology.WorkingSet, o *Omega) ([]*bitmat.Matrix, error) {
	return DecomposeRealizable(ws, o.n, "omega", o.CanRealize)
}
