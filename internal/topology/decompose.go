package topology

import (
	"fmt"

	"pmsnet/internal/bitmat"
)

// Decompose splits a working set C into the minimum number of conflict-free
// crossbar configurations C_1 ... C_k with C = C_1 ∪ ... ∪ C_k (paper §2).
//
// The working set is a bipartite graph between input ports and output ports;
// a conflict-free configuration is a matching of that graph. By König's
// edge-coloring theorem a bipartite graph with maximum degree Δ can be edge
// colored with exactly Δ colors, so k = Degree() configurations always
// suffice and none fewer can. The implementation is the classical
// alternating-path (Kempe chain) recoloring: O(|C| · (N + Δ)).
//
// The returned configurations are partial permutations ordered by color
// index; their union equals the working set exactly.
func Decompose(w *WorkingSet) []*bitmat.Matrix {
	n := w.Ports()
	delta := w.Degree()
	if delta == 0 {
		return nil
	}

	// colorAtSrc[u][c] = output port of the edge at input u colored c, or -1.
	// colorAtDst[v][c] = input port of the edge at output v colored c, or -1.
	colorAtSrc := make([][]int, n)
	colorAtDst := make([][]int, n)
	for i := 0; i < n; i++ {
		colorAtSrc[i] = newFilled(delta, -1)
		colorAtDst[i] = newFilled(delta, -1)
	}

	// One path buffer serves every Kempe-chain flip.
	var path []pathEdge
	for _, e := range w.Conns() {
		a := firstFree(colorAtSrc[e.Src])
		b := firstFree(colorAtDst[e.Dst])
		if a == -1 || b == -1 {
			// Impossible: at most delta edges touch each port.
			panic(fmt.Sprintf("topology: no free color for %v with degree %d", e, delta))
		}
		if colorAtDst[e.Dst][a] == -1 {
			// Color a is free at both endpoints; take it.
			colorAtSrc[e.Src][a] = e.Dst
			colorAtDst[e.Dst][a] = e.Src
			continue
		}
		// a is free at the source but taken at the destination, and b is
		// free at the destination. Swap colors a and b along the maximal
		// alternating path that starts with the destination's a-colored
		// edge. The path cannot reach e.Src (the standard Kempe-chain
		// argument: it would have to arrive via a b-colored edge, making the
		// path a cycle back through e.Dst, impossible since b is free
		// there), so afterwards a is free at both endpoints.
		path = flipAlternatingPath(colorAtSrc, colorAtDst, path[:0], e.Dst, a, b)
		if colorAtDst[e.Dst][a] != -1 || colorAtSrc[e.Src][a] != -1 {
			panic(fmt.Sprintf("topology: alternating-path flip failed to free color %d for %v", a, e))
		}
		colorAtSrc[e.Src][a] = e.Dst
		colorAtDst[e.Dst][a] = e.Src
	}

	configs := make([]*bitmat.Matrix, delta)
	for c := 0; c < delta; c++ {
		configs[c] = bitmat.NewSquare(n)
	}
	for u := 0; u < n; u++ {
		for c := 0; c < delta; c++ {
			if v := colorAtSrc[u][c]; v != -1 {
				configs[c].Set(u, v)
			}
		}
	}
	return configs
}

func newFilled(n, v int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = v
	}
	return s
}

func firstFree(slots []int) int {
	for c, occ := range slots {
		if occ == -1 {
			return c
		}
	}
	return -1
}

// pathEdge is one edge u→v of an alternating path and its current color.
type pathEdge struct{ u, v, color int }

// flipAlternatingPath swaps colors a and b along the maximal alternating
// path that starts at destination vertex start with its a-colored edge:
// start -(a)- u1 -(b)- v1 -(a)- u2 -(b)- ... The walk is collected into path
// (passed empty, returned grown so the caller can reuse its storage) and
// recolored in a second phase so intermediate states never alias.
func flipAlternatingPath(colorAtSrc, colorAtDst [][]int, path []pathEdge, start, a, b int) []pathEdge {
	other := func(c int) int {
		if c == a {
			return b
		}
		return a
	}

	v, color := start, a
	for {
		u := colorAtDst[v][color]
		if u == -1 {
			break
		}
		path = append(path, pathEdge{u: u, v: v, color: color})
		color = other(color)
		nv := colorAtSrc[u][color]
		if nv == -1 {
			break
		}
		path = append(path, pathEdge{u: u, v: nv, color: color})
		v = nv
		color = other(color)
	}

	for _, e := range path {
		colorAtSrc[e.u][e.color] = -1
		colorAtDst[e.v][e.color] = -1
	}
	for _, e := range path {
		nc := other(e.color)
		colorAtSrc[e.u][nc] = e.v
		colorAtDst[e.v][nc] = e.u
	}
	return path
}

// GreedyDecompose is the first-fit alternative decomposer: each connection
// goes into the first configuration whose input and output ports are both
// free, opening a new configuration when none fits. It can use up to
// 2Δ−1 configurations in the worst case but runs in O(|C| · k) with no
// recoloring, which is the shape of what a simple hardware preloader would
// do. Used by the ablation benchmarks against the exact decomposer.
func GreedyDecompose(w *WorkingSet) []*bitmat.Matrix {
	n := w.Ports()
	var configs []*bitmat.Matrix
	for _, e := range w.Conns() {
		placed := false
		for _, cfg := range configs {
			if !cfg.RowAny(e.Src) && !cfg.ColAny(e.Dst) {
				cfg.Set(e.Src, e.Dst)
				placed = true
				break
			}
		}
		if !placed {
			cfg := bitmat.NewSquare(n)
			cfg.Set(e.Src, e.Dst)
			configs = append(configs, cfg)
		}
	}
	return configs
}
