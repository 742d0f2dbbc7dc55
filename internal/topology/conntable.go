package topology

import (
	"fmt"
	"math/bits"
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
// once to count the row's distinct destinations, which sizes the table
// exactly, and once to fill it.
func NewConnTable(n int, rows func(src int, add func(dst int))) *ConnTable {
	b := newRowBuilder(n)
	t := &ConnTable{rowStart: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		t.rowStart[u+1] = t.rowStart[u] + int32(b.count(u, rows))
	}
	t.dst = make([]int32, 0, t.rowStart[n])
	for u := 0; u < n; u++ {
		t.dst = b.appendRow(t.dst, u, rows)
	}
	return t
}

// NewCompleteConnTable returns the table of every connection between n
// ports: row src holds every destination but src. Schedulers built without
// a run's table use it.
func NewCompleteConnTable(n int) *ConnTable {
	return NewConnTable(n, func(src int, add func(dst int)) {
		for v := 0; v < n; v++ {
			if v != src {
				add(v)
			}
		}
	})
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
func (t *ConnTable) Conn(id int32) Conn { return Conn{Src: t.SrcFrom(-1, id), Dst: int(t.dst[id])} }

// SrcFrom returns the source of connection id. from is the source of a
// smaller id, or -1: a scan resolving ascending ids passes each result
// back in, so only its first id costs a binary search and the rest advance
// a row cursor.
func (t *ConnTable) SrcFrom(from int, id int32) int {
	if from < 0 {
		// The row before the first one starting beyond id holds it (the
		// search finds the first of equal starts, so empty rows are
		// skipped).
		next, _ := slices.BinarySearch(t.rowStart, id+1)
		return next - 1
	}
	for t.rowStart[from+1] <= id {
		from++
	}
	return from
}

// rowBuilder collects one row's distinct destinations at a time in a
// bitset over the ports, so a row comes out deduplicated and ascending
// without a sort.
type rowBuilder struct {
	n     int
	src   int           // the row being built
	seen  []uint64      // bit dst set once the current row holds dst
	size  int           // distinct destinations in the current row
	buf   []int32       // row's result
	addFn func(dst int) // add, bound once so building a row allocates nothing
}

func newRowBuilder(n int) *rowBuilder {
	if n <= 0 {
		panic(fmt.Sprintf("topology: invalid port count %d", n))
	}
	b := &rowBuilder{n: n, seen: make([]uint64, (n+63)/64)}
	b.addFn = b.add
	return b
}

// count returns the number of src's distinct destinations.
func (b *rowBuilder) count(src int, rows func(src int, add func(dst int))) int {
	b.src, b.size = src, 0
	rows(src, b.addFn)
	clear(b.seen)
	return b.size
}

// appendRow appends src's distinct destinations to dst in ascending order.
func (b *rowBuilder) appendRow(dst []int32, src int, rows func(src int, add func(dst int))) []int32 {
	b.src = src
	rows(src, b.addFn)
	for w, word := range b.seen {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, int32(w<<6|bits.TrailingZeros64(word)))
		}
		b.seen[w] = 0
	}
	return dst
}

// row returns src's distinct destinations in ascending order, valid until
// the next call.
func (b *rowBuilder) row(src int, rows func(src int, add func(dst int))) []int32 {
	b.buf = b.appendRow(b.buf[:0], src, rows)
	return b.buf
}

// add puts dst into the current row. Out-of-range ports and
// self-connections panic: they cannot exist on the crossbar.
func (b *rowBuilder) add(dst int) {
	if dst < 0 || dst >= b.n || dst == b.src {
		panic(fmt.Sprintf("topology: connection %v outside %d ports or a self-connection", Conn{b.src, dst}, b.n))
	}
	if bit := uint64(1) << (uint(dst) & 63); b.seen[dst>>6]&bit == 0 {
		b.seen[dst>>6] |= bit
		b.size++
	}
}
