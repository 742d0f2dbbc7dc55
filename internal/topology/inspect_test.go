package topology

// Constructors and renderings that only the tests use.

import (
	"fmt"

	"pmsnet/internal/bitmat"
)

// Matrix renders the working set as an NxN boolean matrix, the dense form
// the decomposition oracles compare unions against.
func (w *WorkingSet) Matrix() *bitmat.Matrix {
	m := bitmat.NewSquare(w.n)
	for _, k := range w.keys {
		c := ConnOfKey(k)
		m.Set(c.Src, c.Dst)
	}
	return m
}

// NewMesh returns a cols x rows mesh. Both dimensions must be positive.
func NewMesh(cols, rows int, wrap bool) Mesh {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("topology: invalid mesh %dx%d", cols, rows))
	}
	return Mesh{Cols: cols, Rows: rows, Wrap: wrap}
}

// ConfigMatrices converts port-map configurations to the dense form, for
// the decomposition oracles.
func ConfigMatrices(cfgs [][]int32) []*bitmat.Matrix {
	ms := make([]*bitmat.Matrix, len(cfgs))
	for i, cfg := range cfgs {
		ms[i] = bitmat.FromPermutation(cfg)
	}
	return ms
}
