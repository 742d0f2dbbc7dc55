// Package topology provides processor-grid geometry and working-set
// manipulation for the predictive multiplexed switch.
//
// The paper evaluates nearest-neighbor patterns on a 2-D mesh of 128
// processors attached to a single central crossbar, and preloads compiled
// communication patterns by decomposing a connection working set C into k
// conflict-free crossbar configurations C_1 ... C_k (paper §2). This package
// supplies both: the mesh coordinate system used by the traffic generators,
// and the decomposition algorithms used by the preload controller.
package topology

import "fmt"

// Mesh is a logical 2-D processor grid mapped onto crossbar ports in
// row-major order. Wrap selects torus (wraparound) neighbor semantics.
type Mesh struct {
	Cols, Rows int
	Wrap       bool
}

// MeshFor returns a near-square mesh for n processors: the widest cols x rows
// factorization of n with cols >= rows. For n = 128 this is the paper's 16x8
// grid. It panics if n is not factorable into a grid (n <= 0).
func MeshFor(n int, wrap bool) Mesh {
	if n <= 0 {
		panic(fmt.Sprintf("topology: invalid processor count %d", n))
	}
	best := Mesh{Cols: n, Rows: 1, Wrap: wrap}
	for r := 1; r*r <= n; r++ {
		if n%r == 0 {
			best = Mesh{Cols: n / r, Rows: r, Wrap: wrap}
		}
	}
	return best
}

// Size returns the number of processors.
func (m Mesh) Size() int { return m.Cols * m.Rows }

// Rank returns the crossbar port for grid coordinate (x, y).
func (m Mesh) Rank(x, y int) int {
	if x < 0 || x >= m.Cols || y < 0 || y >= m.Rows {
		panic(fmt.Sprintf("topology: coordinate (%d,%d) outside %dx%d mesh", x, y, m.Cols, m.Rows))
	}
	return y*m.Cols + x
}

// Coord returns the grid coordinate of a rank.
func (m Mesh) Coord(rank int) (x, y int) {
	if rank < 0 || rank >= m.Size() {
		panic(fmt.Sprintf("topology: rank %d outside mesh of %d", rank, m.Size()))
	}
	return rank % m.Cols, rank / m.Cols
}

// Direction names a mesh neighbor. The fixed E,W,N,S order defines the
// deterministic round used by the Ordered Mesh pattern.
type Direction int

// Neighbor directions in the deterministic ordered-mesh round order.
const (
	East Direction = iota
	West
	North
	South
	numDirections
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case East:
		return "east"
	case West:
		return "west"
	case North:
		return "north"
	case South:
		return "south"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Directions lists all four directions in round order.
func Directions() []Direction { return []Direction{East, West, North, South} }

// Neighbor returns the rank of the neighbor of `rank` in direction d, or -1
// if the mesh does not wrap and the neighbor falls off the edge.
func (m Mesh) Neighbor(rank int, d Direction) int {
	x, y := m.Coord(rank)
	switch d {
	case East:
		x++
	case West:
		x--
	case North:
		y--
	case South:
		y++
	default:
		panic(fmt.Sprintf("topology: unknown direction %d", int(d)))
	}
	if m.Wrap {
		x = (x + m.Cols) % m.Cols
		y = (y + m.Rows) % m.Rows
	} else if x < 0 || x >= m.Cols || y < 0 || y >= m.Rows {
		return -1
	}
	return m.Rank(x, y)
}

// Neighbors returns the distinct existing neighbors of rank in E,W,N,S
// order. On a torus with a dimension of size 1 or 2, duplicates collapse.
func (m Mesh) Neighbors(rank int) []int {
	var out []int
	for _, d := range Directions() {
		nb := m.Neighbor(rank, d)
		if nb < 0 || nb == rank {
			continue
		}
		dup := false
		for _, prev := range out {
			if prev == nb {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, nb)
		}
	}
	return out
}
