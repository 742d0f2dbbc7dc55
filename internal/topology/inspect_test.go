package topology

// Constructors that only the tests use.

import "fmt"

// NewMesh returns a cols x rows mesh. Both dimensions must be positive.
func NewMesh(cols, rows int, wrap bool) Mesh {
	if cols <= 0 || rows <= 0 {
		panic(fmt.Sprintf("topology: invalid mesh %dx%d", cols, rows))
	}
	return Mesh{Cols: cols, Rows: rows, Wrap: wrap}
}
