package multistage

// Switch-setting queries that only the tests use: Route is the oracle the
// realizability check is held to.

import (
	"fmt"

	"pmsnet/internal/bitmat"
)

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
	if b, ok := o.route(o.n, func(u int) (int, int) { return u, cfg.FirstInRow(u) }, state); !ok {
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
