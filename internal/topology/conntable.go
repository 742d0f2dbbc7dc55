package topology

import (
	"fmt"
	"slices"
)

// ConnTable numbers the connections of one run. A run's connection set is
// fixed before it starts — programs are static, and so are their compiled
// phases (paper §3.1) — so every connection gets a dense int32 id once, and
// each layer keeps its per-connection state in a slice indexed by that id
// instead of a map keyed by the pair.
//
// The table is in compressed-row form: row src holds ids rowStart[src] to
// rowStart[src+1]-1, whose destinations ascend. Id order is therefore
// (Src, Dst) order. A table never changes after it is built, so concurrent
// readers are safe.
type ConnTable struct {
	rowStart []int32 // len N+1
	dst      []int32 // dst[id]
}

// NewConnTable builds the table whose row src holds the destinations
// rows(src, add) adds, duplicates allowed. rows is called twice per source:
// once to size the table, once to fill it.
func NewConnTable(n int, rows func(src int, add func(dst int))) *ConnTable {
	b := newRowBuilder(n)
	t := &ConnTable{rowStart: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		t.rowStart[u+1] = t.rowStart[u] + int32(len(b.row(u, rows)))
	}
	t.dst = make([]int32, 0, t.rowStart[n])
	for u := 0; u < n; u++ {
		t.dst = append(t.dst, b.row(u, rows)...)
	}
	return t
}

// Ports returns the port count N.
func (t *ConnTable) Ports() int { return len(t.rowStart) - 1 }

// Len returns the number of connections.
func (t *ConnTable) Len() int { return len(t.dst) }

// Row returns the ids of src's connections: lo up to but excluding hi.
func (t *ConnTable) Row(src int) (lo, hi int32) { return t.rowStart[src], t.rowStart[src+1] }

// RowDsts returns src's destinations in ascending order, the i-th being
// connection Row(src)+i. The slice is the table's own; do not modify it.
func (t *ConnTable) RowDsts(src int) []int32 {
	lo, hi := t.Row(src)
	return t.dst[lo:hi:hi]
}

// Dst returns the destination of connection id.
func (t *ConnTable) Dst(id int32) int { return int(t.dst[id]) }

// ID returns the id of src→dst, or -1 when the table does not hold it. It
// binary-searches src's row: callers resolve an id once and pass it along.
func (t *ConnTable) ID(src, dst int) int32 {
	if src < 0 || src >= t.Ports() {
		return -1
	}
	lo, hi := t.Row(src)
	if i, ok := slices.BinarySearch(t.dst[lo:hi], int32(dst)); ok {
		return lo + int32(i)
	}
	return -1
}

// Conn returns connection id's port pair.
func (t *ConnTable) Conn(id int32) Conn {
	// The row before the first one starting beyond id holds it (the search
	// finds the first of equal starts, so empty rows are skipped).
	next, _ := slices.BinarySearch(t.rowStart, id+1)
	return Conn{Src: next - 1, Dst: int(t.dst[id])}
}

// rowBuilder collects one row's distinct destinations at a time.
type rowBuilder struct {
	n     int
	src   int     // the row being built
	stamp int32   // counts rows built
	seen  []int32 // seen[v] == stamp once the current row holds v
	buf   []int32
	addFn func(dst int) // add, bound once so building a row allocates nothing
}

func newRowBuilder(n int) *rowBuilder {
	if n <= 0 {
		panic(fmt.Sprintf("topology: invalid port count %d", n))
	}
	b := &rowBuilder{n: n, seen: make([]int32, n)}
	b.addFn = b.add
	return b
}

// row returns src's distinct destinations in ascending order, valid until
// the next call.
func (b *rowBuilder) row(src int, rows func(src int, add func(dst int))) []int32 {
	b.buf = b.buf[:0]
	b.src = src
	b.stamp++
	rows(src, b.addFn)
	slices.Sort(b.buf)
	return b.buf
}

// add puts dst into the current row. Out-of-range ports and
// self-connections panic: they cannot exist on the crossbar.
func (b *rowBuilder) add(dst int) {
	if dst < 0 || dst >= b.n || dst == b.src {
		panic(fmt.Sprintf("topology: connection %v outside %d ports or a self-connection", Conn{b.src, dst}, b.n))
	}
	if b.seen[dst] != b.stamp {
		b.seen[dst] = b.stamp
		b.buf = append(b.buf, int32(dst))
	}
}
