package multistage

import (
	"fmt"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/topology"
)

// FirstFit splits a list of distinct connections over n ports into
// configurations that each satisfy a fabric's realizability oracle.
// Connections are taken in list order; each joins the first configuration
// that stays realizable with it, opening a new configuration otherwise. The
// configurations are port maps (cfg[u] is the output input u connects to,
// or -1), and their union is the list.
//
// Because a blocking fabric realizes fewer permutations than a crossbar, the
// result can need more configurations than the crossbar's optimal (the
// working set's degree) — quantifying the extra multiplexing degree a
// predictive multiplexed switch pays on that fabric.
func FirstFit(n int, conns []topology.Conn, canRealize func(cfg []int32) bool) [][]int32 {
	words := (n + 63) / 64
	var configs [][]int32
	var outs [][]uint64 // outs[c]: the outputs configuration c uses
	for _, e := range conns {
		u, v := e.Src, int32(e.Dst)
		c := 0
		for ; c < len(configs); c++ {
			if cfg := configs[c]; cfg[u] < 0 && !bitmat.MaskTest(outs[c], e.Dst) {
				if cfg[u] = v; canRealize(cfg) {
					break
				}
				cfg[u] = -1
			}
		}
		if c == len(configs) {
			cfg := topology.NewPortMap(n)
			if cfg[u] = v; !canRealize(cfg) {
				// A single connection is always realizable; anything else
				// is a wiring-model bug.
				panic(fmt.Sprintf("multistage: single connection %v unroutable", e))
			}
			configs = append(configs, cfg)
			outs = append(outs, make([]uint64, words))
		}
		bitmat.MaskSet(outs[c], e.Dst)
	}
	return configs
}

// Weighted is one term of a Birkhoff–von-Neumann-style decomposition: a
// conflict-free partial permutation carrying an integer weight.
type Weighted struct {
	// Weight is the term's coefficient in slots (always positive).
	Weight int64
	// Config is the partial permutation as a port map.
	Config []int32
}

// DecomposeBvN splits a non-negative integer n×n demand matrix — read
// through the accessor `at` — into weighted partial permutations that sum
// exactly to the input:
//
//	demand(u,v) = Σ over terms t with t.Config[u,v]=1 of t.Weight
//
// This is the integer analogue of the Birkhoff–von-Neumann theorem extended
// to arbitrary (non-doubly-stochastic) matrices via partial permutations:
// each round extracts a maximum-cardinality matching over the remaining
// support (Kuhn's augmenting paths, deterministic adjacency order: heavier
// columns first, ties to the lower column index) weighted by the smallest
// remaining entry it touches. Every round zeroes at least one entry, so at
// most nnz(demand) terms are produced. The decomposition is deterministic.
func DecomposeBvN(n int, at func(u, v int) int64) ([]Weighted, error) {
	if n <= 0 {
		return nil, fmt.Errorf("multistage: invalid matrix size %d", n)
	}
	rem := make([]int64, n*n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			w := at(u, v)
			if w < 0 {
				return nil, fmt.Errorf("multistage: negative demand %d at (%d,%d)", w, u, v)
			}
			rem[u*n+v] = w
		}
	}
	matchOf := make([]int, n) // row -> matched col, -1 if unmatched
	colOf := make([]int, n)   // col -> matched row, -1 if unmatched
	visited := make([]bool, n)
	// cands[start[u]:start[u+1]] is row u's candidate columns in the order
	// augment tries them: heaviest remaining entry first so heavy edges
	// tend to share a term, ties to the lower column index
	// (sortColsByWeight is stable). rem changes only between rounds, so
	// each round builds the lists once, in one arena of its nonzeros, and
	// the recursion only reads them.
	start := make([]int, n+1)
	var cands []int
	var augment func(u int) bool
	augment = func(u int) bool {
		for _, v := range cands[start[u]:start[u+1]] {
			if visited[v] {
				continue
			}
			visited[v] = true
			if colOf[v] < 0 || augment(colOf[v]) {
				matchOf[u], colOf[v] = v, u
				return true
			}
		}
		return false
	}
	var terms []Weighted
	for {
		cands = cands[:0]
		for u := 0; u < n; u++ {
			row := rem[u*n : u*n+n]
			for v, w := range row {
				if w > 0 {
					cands = append(cands, v)
				}
			}
			sortColsByWeight(cands[start[u]:], row)
			start[u+1] = len(cands)
		}
		for i := range matchOf {
			matchOf[i], colOf[i] = -1, -1
		}
		size := 0
		for u := 0; u < n; u++ {
			for i := range visited {
				visited[i] = false
			}
			if augment(u) {
				size++
			}
		}
		if size == 0 {
			break
		}
		// The term's weight is the bottleneck entry of the matching, so
		// subtracting it zeroes at least one entry.
		var weight int64
		for u := 0; u < n; u++ {
			if v := matchOf[u]; v >= 0 {
				if w := rem[u*n+v]; weight == 0 || w < weight {
					weight = w
				}
			}
		}
		cfg := topology.NewPortMap(n)
		for u := 0; u < n; u++ {
			if v := matchOf[u]; v >= 0 {
				cfg[u] = int32(v)
				rem[u*n+v] -= weight
			}
		}
		terms = append(terms, Weighted{Weight: weight, Config: cfg})
	}
	return terms, nil
}

// sortColsByWeight orders the candidate columns by decreasing remaining
// weight, ties to the lower index (insertion sort keeps it allocation-free
// and stable; candidate lists are at most the row's degree).
func sortColsByWeight(cols []int, row []int64) {
	for i := 1; i < len(cols); i++ {
		c := cols[i]
		j := i - 1
		for j >= 0 && row[cols[j]] < row[c] {
			cols[j+1] = cols[j]
			j--
		}
		cols[j+1] = c
	}
}
