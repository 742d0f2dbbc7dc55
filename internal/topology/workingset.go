package topology

import (
	"fmt"
	"slices"

	"pmsnet/internal/bitmat"
)

// Conn is one end-to-end connection (a crossbar input→output pair).
type Conn struct {
	Src, Dst int
}

// String implements fmt.Stringer.
func (c Conn) String() string { return fmt.Sprintf("%d->%d", c.Src, c.Dst) }

// Key packs the connection into one word, Src in the high 32 bits: an
// 8-byte map key that hashes faster than the 16-byte struct.
func (c Conn) Key() uint64 { return uint64(uint32(c.Src))<<32 | uint64(uint32(c.Dst)) }

// ConnOfKey unpacks a Conn.Key.
func ConnOfKey(k uint64) Conn { return Conn{Src: int(int32(k >> 32)), Dst: int(int32(k))} }

// WorkingSet is a communication working set W(j): the set of connections a
// program phase uses (paper §2). It deduplicates connections and tracks the
// port count so it can be rendered as a request matrix.
//
// The connections are held as Conn.Key words: a map for deduplication and
// membership, and a slice in insertion order that every listing walks, so
// no operation iterates the map.
type WorkingSet struct {
	n    int
	seen map[uint64]struct{}
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
	return &WorkingSet{n: n, seen: make(map[uint64]struct{}, conns), keys: make([]uint64, 0, conns)}
}

// Ports returns the port count N.
func (w *WorkingSet) Ports() int { return w.n }

// Add inserts a connection; duplicates are ignored. Self-connections and
// out-of-range ports panic: they cannot exist on the crossbar.
func (w *WorkingSet) Add(c Conn) {
	if c.Src < 0 || c.Src >= w.n || c.Dst < 0 || c.Dst >= w.n {
		panic(fmt.Sprintf("topology: connection %v outside %d ports", c, w.n))
	}
	if c.Src == c.Dst {
		panic(fmt.Sprintf("topology: self-connection %v", c))
	}
	w.addKey(c.Key())
}

func (w *WorkingSet) addKey(k uint64) {
	if _, ok := w.seen[k]; !ok {
		w.seen[k] = struct{}{}
		w.keys = append(w.keys, k)
	}
}

// Contains reports whether the set holds c. A connection outside the ports
// is never held; checking first keeps its key from aliasing a held one.
func (w *WorkingSet) Contains(c Conn) bool {
	if c.Src < 0 || c.Src >= w.n || c.Dst < 0 || c.Dst >= w.n {
		return false
	}
	_, ok := w.seen[c.Key()]
	return ok
}

// Len returns the number of distinct connections.
func (w *WorkingSet) Len() int { return len(w.keys) }

// Conns returns the connections sorted by (Src, Dst) for deterministic
// iteration. Src sits in a key's high bits, so key order is (Src, Dst)
// order. It sorts a copy and never mutates the set, so a set shared by
// concurrent runs stays safe to read.
func (w *WorkingSet) Conns() []Conn {
	keys := slices.Clone(w.keys)
	slices.Sort(keys)
	out := make([]Conn, len(keys))
	for i, k := range keys {
		out[i] = ConnOfKey(k)
	}
	return out
}

// Union returns a new working set containing both sets' connections.
func (w *WorkingSet) Union(o *WorkingSet) *WorkingSet {
	if w.n != o.n {
		panic(fmt.Sprintf("topology: union of working sets over %d and %d ports", w.n, o.n))
	}
	u := NewWorkingSet(w.n)
	for _, k := range w.keys {
		u.addKey(k)
	}
	for _, k := range o.keys {
		u.addKey(k)
	}
	return u
}

// Matrix renders the working set as an NxN boolean matrix (a request matrix
// in which every connection of the set is requested).
func (w *WorkingSet) Matrix() *bitmat.Matrix {
	m := bitmat.NewSquare(w.n)
	for _, k := range w.keys {
		c := ConnOfKey(k)
		m.Set(c.Src, c.Dst)
	}
	return m
}

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
