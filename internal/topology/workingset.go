package topology

import (
	"fmt"
	"slices"
)

// Conn is one end-to-end connection (a crossbar input→output pair).
type Conn struct {
	Src, Dst int
}

// String implements fmt.Stringer.
func (c Conn) String() string { return fmt.Sprintf("%d->%d", c.Src, c.Dst) }

// Key packs the connection into one word, Src in the high 32 bits, so key
// order is (Src, Dst) order.
func (c Conn) Key() uint64 { return uint64(uint32(c.Src))<<32 | uint64(uint32(c.Dst)) }

// ConnOfKey unpacks a Conn.Key.
func ConnOfKey(k uint64) Conn { return Conn{Src: int(int32(k >> 32)), Dst: int(int32(k))} }

// WorkingSet is a communication working set W(j): the set of connections a
// program phase uses (paper §2). It deduplicates connections and tracks the
// port count.
//
// The connections are held as Conn.Key words in one slice kept sorted and
// distinct on every write, so every read is a walk or a binary search that
// writes nothing, and a set shared by concurrent runs stays safe to read.
type WorkingSet struct {
	n    int
	keys []uint64
}

// NewWorkingSet creates an empty working set over n ports.
func NewWorkingSet(n int) *WorkingSet { return NewWorkingSetSized(n, 0) }

// NewWorkingSetSized creates an empty working set over n ports with room for
// conns connections, for callers that know how many they will add.
func NewWorkingSetSized(n, conns int) *WorkingSet {
	if n <= 0 {
		panic(fmt.Sprintf("topology: invalid port count %d", n))
	}
	return &WorkingSet{n: n, keys: make([]uint64, 0, conns)}
}

// NewWorkingSetOfRows builds the working set whose row src holds the
// destinations rows(src, add) adds, duplicates allowed. The rows are built in
// (Src, Dst) order, so the set is sorted as it is built.
func NewWorkingSetOfRows(n int, rows func(src int, add func(dst int))) *WorkingSet {
	w := NewWorkingSet(n)
	b := newRowBuilder(n)
	for u := 0; u < n; u++ {
		for _, v := range b.row(u, rows) {
			w.keys = append(w.keys, Conn{Src: u, Dst: int(v)}.Key())
		}
	}
	return w
}

// Ports returns the port count N.
func (w *WorkingSet) Ports() int { return w.n }

// Add inserts a connection; duplicates are ignored. Self-connections and
// out-of-range ports panic: they cannot exist on the crossbar. Adds in
// (Src, Dst) order append; others shift the keys after their place.
func (w *WorkingSet) Add(c Conn) {
	w.check(c)
	k := c.Key()
	if last := len(w.keys) - 1; last < 0 || w.keys[last] < k {
		w.keys = append(w.keys, k)
		return
	}
	if i, ok := slices.BinarySearch(w.keys, k); !ok {
		w.keys = slices.Insert(w.keys, i, k)
	}
}

func (w *WorkingSet) check(c Conn) {
	if c.Src < 0 || c.Src >= w.n || c.Dst < 0 || c.Dst >= w.n {
		panic(fmt.Sprintf("topology: connection %v outside %d ports", c, w.n))
	}
	if c.Src == c.Dst {
		panic(fmt.Sprintf("topology: self-connection %v", c))
	}
}

// Contains reports whether the set holds c. A connection outside the ports
// is never held; checking first keeps its key from aliasing a held one.
func (w *WorkingSet) Contains(c Conn) bool {
	if c.Src < 0 || c.Src >= w.n || c.Dst < 0 || c.Dst >= w.n {
		return false
	}
	_, ok := slices.BinarySearch(w.keys, c.Key())
	return ok
}

// Union returns a new working set containing both sets' connections.
func (w *WorkingSet) Union(o *WorkingSet) *WorkingSet {
	if w.n != o.n {
		panic(fmt.Sprintf("topology: union of working sets over %d and %d ports", w.n, o.n))
	}
	keys := append(slices.Clone(w.keys), o.keys...)
	slices.Sort(keys)
	return &WorkingSet{n: w.n, keys: slices.Compact(keys)}
}

// Len returns the number of distinct connections.
func (w *WorkingSet) Len() int { return len(w.keys) }

// Conns returns the connections in (Src, Dst) order.
func (w *WorkingSet) Conns() []Conn {
	out := make([]Conn, len(w.keys))
	for i, k := range w.keys {
		out[i] = ConnOfKey(k)
	}
	return out
}

// EachDst calls f on the destination of every connection from src, in
// ascending order.
func (w *WorkingSet) EachDst(src int, f func(dst int)) {
	lo, _ := slices.BinarySearch(w.keys, Conn{Src: src}.Key())
	for _, k := range w.keys[lo:] {
		c := ConnOfKey(k)
		if c.Src != src {
			return
		}
		f(c.Dst)
	}
}

// Keys returns the connections as Conn.Key words in (Src, Dst) order. The
// slice is the set's own; do not modify it.
func (w *WorkingSet) Keys() []uint64 { return w.keys }

// Degree returns the maximum port degree: the larger of the highest
// out-degree over sources and the highest in-degree over destinations. By
// König's theorem this is exactly the minimum number of conflict-free
// configurations the set decomposes into — the minimum multiplexing degree
// k_j needed to cache the whole working set (paper §2).
func (w *WorkingSet) Degree() int {
	out := make([]int, w.n)
	in := make([]int, w.n)
	max := 0
	for _, k := range w.keys {
		c := ConnOfKey(k)
		out[c.Src]++
		in[c.Dst]++
		if out[c.Src] > max {
			max = out[c.Src]
		}
		if in[c.Dst] > max {
			max = in[c.Dst]
		}
	}
	return max
}
