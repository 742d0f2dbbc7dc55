package topology

import (
	"fmt"
	"math/bits"
)

// IDSet is a set of one ConnTable's connections: a bitset over the table's
// ids plus a row-occupancy mask whose bit src is set while row src holds a
// member. Request views, latches and speculative requests are IDSets, so a
// run's set of connections costs one bit per connection and one per port,
// not one per port pair. Ids ascend in (Src, Dst) order, so the members of
// row src, read word by word over Row(src), come out in destination order.
type IDSet struct {
	t    *ConnTable
	ids  []uint64 // bit id set for a member
	rows []uint64 // bit src set while row src holds a member
}

// NewIDSet returns an empty set over t's connections.
func NewIDSet(t *ConnTable) *IDSet {
	idWords := (t.Len() + 63) / 64
	words := make([]uint64, idWords+(t.Ports()+63)/64)
	return &IDSet{t: t, ids: words[:idWords:idWords], rows: words[idWords:]}
}

// Table returns the connection table the set's ids index.
func (s *IDSet) Table() *ConnTable { return s.t }

// Has reports whether connection id is a member.
func (s *IDSet) Has(id int32) bool { return s.ids[id>>6]&(1<<(uint32(id)&63)) != 0 }

// Add makes connection id, of source src, a member.
func (s *IDSet) Add(src int, id int32) {
	s.checkRow(src, id)
	s.ids[id>>6] |= 1 << (uint32(id) & 63)
	s.rows[src>>6] |= 1 << (uint(src) & 63)
}

// Remove takes connection id, of source src, out of the set; the row bit
// clears with the row's last member.
func (s *IDSet) Remove(src int, id int32) {
	s.checkRow(src, id)
	s.ids[id>>6] &^= 1 << (uint32(id) & 63)
	if lo, hi := s.t.Row(src); s.Next(lo, hi) == hi {
		s.rows[src>>6] &^= 1 << (uint(src) & 63)
	}
}

// checkRow panics unless id lies in src's row: a wrong source would
// corrupt the row mask silently.
func (s *IDSet) checkRow(src int, id int32) {
	if lo, hi := s.t.Row(src); id < lo || id >= hi {
		panic(fmt.Sprintf("topology: connection %d is not in row %d", id, src))
	}
}

// IDs returns the live id bitset. Read-only for callers.
func (s *IDSet) IDs() []uint64 { return s.ids }

// Rows returns the live row-occupancy mask. Read-only for callers.
func (s *IDSet) Rows() []uint64 { return s.rows }

// IsEmpty reports whether the set has no member, in O(ports/64).
func (s *IDSet) IsEmpty() bool {
	for _, w := range s.rows {
		if w != 0 {
			return false
		}
	}
	return true
}

// Next returns the smallest member in [from, hi), or hi when there is none.
func (s *IDSet) Next(from, hi int32) int32 {
	if from >= hi {
		return hi
	}
	w := from >> 6
	word := s.ids[w] &^ (1<<(uint32(from)&63) - 1)
	for {
		if word != 0 {
			if id := w<<6 | int32(bits.TrailingZeros64(word)); id < hi {
				return id
			}
			return hi
		}
		if w++; w<<6 >= hi {
			return hi
		}
		word = s.ids[w]
	}
}

// Reset removes every member.
func (s *IDSet) Reset() {
	clear(s.ids)
	clear(s.rows)
}

// CopyFrom makes s equal to o, a set over the same table.
func (s *IDSet) CopyFrom(o *IDSet) {
	s.sameTable(o)
	copy(s.ids, o.ids)
	copy(s.rows, o.rows)
}

// Or adds every member of o, a set over the same table, word by word.
func (s *IDSet) Or(o *IDSet) {
	s.sameTable(o)
	for i, w := range o.ids {
		s.ids[i] |= w
	}
	for i, w := range o.rows {
		s.rows[i] |= w
	}
}

func (s *IDSet) sameTable(o *IDSet) {
	if s.t != o.t {
		panic("topology: IDSets over different connection tables")
	}
}

// Check verifies that the row mask marks exactly the rows holding a
// member, returning the first violation. O(ids/64 + ports).
func (s *IDSet) Check() error {
	for src := 0; src < s.t.Ports(); src++ {
		lo, hi := s.t.Row(src)
		has := s.Next(lo, hi) < hi
		if marked := s.rows[src>>6]&(1<<(uint(src)&63)) != 0; marked != has {
			return fmt.Errorf("topology: IDSet row %d marked %v, holds members %v", src, marked, has)
		}
	}
	return nil
}
