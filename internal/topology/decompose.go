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

	// atSrc[u*delta+c] = output port of the edge at input u colored c, or -1.
	// atDst[v*delta+c] = input port of the edge at output v colored c, or -1.
	tables := make([]int32, 2*n*delta)
	for i := range tables {
		tables[i] = -1
	}
	atSrc, atDst := tables[:n*delta:n*delta], tables[n*delta:]

	for _, e := range w.Conns() {
		src := atSrc[e.Src*delta : (e.Src+1)*delta]
		dst := atDst[e.Dst*delta : (e.Dst+1)*delta]
		a := firstFree(src)
		b := firstFree(dst)
		if a == -1 || b == -1 {
			// Impossible: at most delta edges touch each port.
			panic(fmt.Sprintf("topology: no free color for %v with degree %d", e, delta))
		}
		if dst[a] != -1 {
			// a is free at the source but taken at the destination, and b
			// is free at the destination. Swap colors a and b along the
			// maximal alternating path that starts with the destination's
			// a-colored edge. The path cannot reach e.Src (the standard
			// Kempe-chain argument: it would have to arrive via a b-colored
			// edge, making the path a cycle back through e.Dst, impossible
			// since b is free there), so afterwards a is free at both
			// endpoints.
			flipAlternatingPath(atSrc, atDst, delta, e.Dst, a, b)
			if dst[a] != -1 || src[a] != -1 {
				panic(fmt.Sprintf("topology: alternating-path flip failed to free color %d for %v", a, e))
			}
		}
		src[a] = int32(e.Dst)
		dst[a] = int32(e.Src)
	}

	configs := make([]*bitmat.Matrix, delta)
	for c := 0; c < delta; c++ {
		configs[c] = bitmat.NewSquare(n)
	}
	for u := 0; u < n; u++ {
		for c, v := range atSrc[u*delta : (u+1)*delta] {
			if v != -1 {
				configs[c].Set(u, int(v))
			}
		}
	}
	return configs
}

func firstFree(slots []int32) int {
	for c, occ := range slots {
		if occ == -1 {
			return c
		}
	}
	return -1
}

// flipAlternatingPath swaps colors a and b along the maximal alternating
// path that starts at destination vertex start with its a-colored edge:
// start -(a)- u1 -(b)- v1 -(a)- u2 -(b)- ... Every vertex on the path holds
// its path edges in colors a and b (an end vertex holds one and has the
// other free), so swapping the two entries of each vertex's table recolors
// the path in one walk. The walk reads the next vertex before it swaps, and
// a path visits no vertex twice.
func flipAlternatingPath(atSrc, atDst []int32, delta, start, a, b int) {
	v, color := start, a
	for {
		dst := atDst[v*delta : (v+1)*delta]
		u := dst[color]
		dst[a], dst[b] = dst[b], dst[a]
		if u == -1 {
			return
		}
		color ^= a ^ b
		src := atSrc[int(u)*delta : (int(u)+1)*delta]
		nv := src[color]
		src[a], src[b] = src[b], src[a]
		if nv == -1 {
			return
		}
		v = int(nv)
		color ^= a ^ b
	}
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
