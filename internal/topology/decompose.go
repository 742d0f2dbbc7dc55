package topology

import (
	"fmt"
	"math/bits"

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
// alternating-path (Kempe chain) recoloring. Each port keeps a bitmask of
// its free colors, so finding one costs O(Δ/64) word scans, and the color
// tables are stored color-major, so a flip of colors a and b walks four rows
// of N entries: O(|C| · (N + Δ/64)) in all.
//
// The returned configurations are port maps (cfg[u] is the output input u
// connects to, or -1) ordered by color index; each is a partial permutation
// and their union equals the working set exactly. They are the rows of the
// coloring's own table, so they share one allocation.
func Decompose(w *WorkingSet) [][]int32 {
	n := w.Ports()
	delta := w.Degree()
	if delta == 0 {
		return nil
	}

	// atSrc[c*n+u] = output port of the edge at input u colored c, or -1.
	// atDst[c*n+v] = input port of the edge at output v colored c, or -1.
	atSrc, atDst := make([]int32, n*delta), make([]int32, n*delta)
	for i := range atSrc {
		atSrc[i], atDst[i] = -1, -1
	}
	// freeSrc[u*words:(u+1)*words] has bit c set while input u has color c
	// free; freeDst likewise for outputs.
	words := (delta + 63) / 64
	masks := make([]uint64, 2*n*words)
	for i := range masks {
		masks[i] = ^uint64(0)
	}
	if r := delta % 64; r != 0 {
		for i := words - 1; i < len(masks); i += words {
			masks[i] = 1<<r - 1
		}
	}
	freeSrc, freeDst := masks[:n*words:n*words], masks[n*words:]

	for _, k := range w.keys {
		e := ConnOfKey(k)
		src := freeSrc[e.Src*words : (e.Src+1)*words]
		dst := freeDst[e.Dst*words : (e.Dst+1)*words]
		a := firstFree(src)
		b := firstFree(dst)
		if a == -1 || b == -1 {
			// Impossible: at most delta edges touch each port.
			panic(fmt.Sprintf("topology: no free color for %v with degree %d", e, delta))
		}
		if atDst[a*n+e.Dst] != -1 {
			// a is free at the source but taken at the destination, and b
			// is free at the destination. Swap colors a and b along the
			// maximal alternating path that starts with the destination's
			// a-colored edge. The path cannot reach e.Src (the standard
			// Kempe-chain argument: it would have to arrive via a b-colored
			// edge, making the path a cycle back through e.Dst, impossible
			// since b is free there), so afterwards a is free at both
			// endpoints.
			end, endIsDst := flipAlternatingPath(atSrc[a*n:(a+1)*n], atSrc[b*n:(b+1)*n],
				atDst[a*n:(a+1)*n], atDst[b*n:(b+1)*n], e.Dst)
			toggle(dst, a, b)
			if endIsDst {
				toggle(freeDst[end*words:(end+1)*words], a, b)
			} else {
				toggle(freeSrc[end*words:(end+1)*words], a, b)
			}
			if atDst[a*n+e.Dst] != -1 || atSrc[a*n+e.Src] != -1 {
				panic(fmt.Sprintf("topology: alternating-path flip failed to free color %d for %v", a, e))
			}
		}
		atSrc[a*n+e.Src] = int32(e.Dst)
		atDst[a*n+e.Dst] = int32(e.Src)
		bitmat.MaskClear(src, a)
		bitmat.MaskClear(dst, a)
	}

	configs := make([][]int32, delta)
	for c := range configs {
		configs[c] = atSrc[c*n : (c+1)*n : (c+1)*n]
	}
	return configs
}

// firstFree returns the lowest color set in a free-color mask, or -1.
func firstFree(free []uint64) int {
	for i, word := range free {
		if word != 0 {
			return i*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// toggle flips colors a and b in a free-color mask.
func toggle(free []uint64, a, b int) {
	free[a/64] ^= 1 << (a % 64)
	free[b/64] ^= 1 << (b % 64)
}

// flipAlternatingPath swaps colors a and b along the maximal alternating
// path that starts at destination vertex start with its a-colored edge:
// start -(a)- u1 -(b)- v1 -(a)- u2 -(b)- ... The rows are the color tables'
// a and b rows for sources and destinations. Every vertex on the path holds
// its path edges in colors a and b (an end vertex holds one and has the
// other free), so swapping the two entries of each vertex recolors the path
// in one walk; a destination is always left by its a-colored edge and a
// source by its b-colored one. The walk reads the next vertex before it
// swaps, and a path visits no vertex twice. It returns the path's far end
// vertex and whether that is a destination: the two ends are the only
// vertices whose free colors change.
func flipAlternatingPath(srcA, srcB, dstA, dstB []int32, start int) (end int, endIsDst bool) {
	v := start
	for {
		u := dstA[v]
		dstA[v], dstB[v] = dstB[v], u
		if u == -1 {
			return v, true
		}
		nv := srcB[u]
		srcA[u], srcB[u] = nv, srcA[u]
		if nv == -1 {
			return int(u), false
		}
		v = int(nv)
	}
}

// NewPortMap returns a configuration over n ports with every input free: a
// port map whose entry u is the output input u connects to, or -1.
func NewPortMap(n int) []int32 {
	cfg := make([]int32, n)
	for u := range cfg {
		cfg[u] = -1
	}
	return cfg
}
