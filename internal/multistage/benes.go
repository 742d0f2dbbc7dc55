package multistage

import (
	"fmt"
	"math/bits"

	"pmsnet/internal/bitmat"
)

// Benes is an N-port Benes network: 2·log2(N)−1 stages of 2x2 switches,
// rearrangeably non-blocking — the looping algorithm routes any permutation,
// so a Benes fabric accepts every crossbar configuration.
type Benes struct {
	n int
}

// NewBenes builds a Benes network; n must be a power of two, at least 2.
func NewBenes(n int) (*Benes, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("multistage: benes size %d must be a power of two >= 2", n)
	}
	return &Benes{n: n}, nil
}

// Ports returns N.
func (b *Benes) Ports() int { return b.n }

// Stages returns 2·log2(N)−1.
func (b *Benes) Stages() int { return 2*(bits.Len(uint(b.n))-1) - 1 }

// BenesRoute is a routed Benes network: the recursive switch settings
// produced by the looping algorithm. Eval traces an input to its output.
type BenesRoute struct {
	n int
	// n == 2: the single switch state.
	cross bool
	// n > 2: input/output column switch states (n/2 each; true = cross) and
	// the two half-size subnetworks.
	inCross, outCross []bool
	upper, lower      *BenesRoute
}

// Route runs the looping algorithm on a configuration (a partial
// permutation matrix). Unused inputs are routed to unused outputs to
// complete the permutation; Benes networks are rearrangeably non-blocking,
// so Route never fails for a valid configuration.
func (b *Benes) Route(cfg *bitmat.Matrix) (*BenesRoute, error) {
	if cfg.Rows() != b.n || cfg.Cols() != b.n {
		return nil, fmt.Errorf("multistage: configuration is %dx%d, benes has %d ports", cfg.Rows(), cfg.Cols(), b.n)
	}
	if !cfg.IsPartialPermutation() {
		return nil, fmt.Errorf("multistage: configuration is not a partial permutation")
	}
	perm := completePermutation(cfg)
	return routeBenes(perm), nil
}

// completePermutation extends a partial permutation matrix to a full
// permutation by pairing unused inputs with unused outputs in ascending
// order.
func completePermutation(cfg *bitmat.Matrix) []int {
	n := cfg.Rows()
	perm := make([]int, n)
	usedOut := make([]bool, n)
	for i := 0; i < n; i++ {
		perm[i] = cfg.FirstInRow(i)
		if perm[i] >= 0 {
			usedOut[perm[i]] = true
		}
	}
	free := make([]int, 0, n)
	for j := 0; j < n; j++ {
		if !usedOut[j] {
			free = append(free, j)
		}
	}
	next := 0
	for i := 0; i < n; i++ {
		if perm[i] < 0 {
			perm[i] = free[next]
			next++
		}
	}
	return perm
}

// routeBenes recursively routes a full permutation with the looping
// algorithm.
func routeBenes(perm []int) *BenesRoute {
	n := len(perm)
	if n == 2 {
		return &BenesRoute{n: 2, cross: perm[0] == 1}
	}

	iperm := make([]int, n)
	for i, j := range perm {
		iperm[j] = i
	}

	// assign[i] is the subnetwork (0 = upper, 1 = lower) carrying input i's
	// connection. The looping constraints: the two inputs of an input
	// switch use different subnetworks, and the two outputs of an output
	// switch are fed by different subnetworks.
	const unassigned = -1
	assign := make([]int, n)
	for i := range assign {
		assign[i] = unassigned
	}
	for start := 0; start < n; start++ {
		i, s := start, 0
		for assign[i] == unassigned {
			assign[i] = s
			// The partner output of perm[i] must come through the other
			// subnetwork.
			ip := iperm[perm[i]^1]
			if assign[ip] == unassigned {
				assign[ip] = 1 - s
			}
			// ip's input-switch partner must take the other subnetwork
			// from ip, i.e. s again; continue the loop there.
			i = ip ^ 1
			s = 1 - assign[ip]
		}
	}

	half := n / 2
	r := &BenesRoute{
		n:        n,
		inCross:  make([]bool, half),
		outCross: make([]bool, half),
	}
	upperPerm := make([]int, half)
	lowerPerm := make([]int, half)
	for k := 0; k < half; k++ {
		top, bottom := 2*k, 2*k+1
		// Input switch k: through sends its top input to the upper
		// subnetwork; cross swaps.
		r.inCross[k] = assign[top] == 1
		for _, i := range []int{top, bottom} {
			j := perm[i]
			if assign[i] == 0 {
				upperPerm[k] = j / 2
			} else {
				lowerPerm[k] = j / 2
			}
		}
	}
	for m := 0; m < half; m++ {
		// Output switch m: through takes its top input (from the upper
		// subnetwork) to output 2m; cross swaps. Output 2m comes from the
		// upper subnetwork iff its source input is assigned upper.
		r.outCross[m] = assign[iperm[2*m]] == 1
	}
	r.upper = routeBenes(upperPerm)
	r.lower = routeBenes(lowerPerm)
	return r
}

// Eval traces input u through the routed network and returns its output.
func (r *BenesRoute) Eval(u int) int {
	if u < 0 || u >= r.n {
		panic(fmt.Sprintf("multistage: input %d outside [0,%d)", u, r.n))
	}
	if r.n == 2 {
		if r.cross {
			return u ^ 1
		}
		return u
	}
	k := u / 2
	top := u&1 == 0
	goesUpper := top != r.inCross[k]
	var m int
	var fromUpper bool
	if goesUpper {
		m = r.upper.Eval(k)
		fromUpper = true
	} else {
		m = r.lower.Eval(k)
		fromUpper = false
	}
	// Output switch m: upper feeds its top input, lower its bottom input.
	if fromUpper != r.outCross[m] {
		return 2 * m
	}
	return 2*m + 1
}

// Realizes reports whether the routed network delivers every connection of
// the configuration.
func (r *BenesRoute) Realizes(cfg *bitmat.Matrix) bool {
	ok := true
	cfg.Ones(func(u, v int) bool {
		if r.Eval(u) != v {
			ok = false
			return false
		}
		return true
	})
	return ok
}
