package bitmat

// Matrix constructors and queries that only the tests use.

import (
	"fmt"
)

// FromRows builds a matrix from a [][]bool literal. All rows must have equal
// length.
func FromRows(rows [][]bool) *Matrix {
	r := len(rows)
	c := 0
	if r > 0 {
		c = len(rows[0])
	}
	m := New(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("bitmat: ragged rows: row %d has %d cols, want %d", i, len(row), c))
		}
		for j, v := range row {
			if v {
				m.Set(i, j)
			}
		}
	}
	return m
}

// Toggle flips bit (i, j) and returns its new value. This is the T(u,v)
// update the scheduling array applies to B(s).
func (m *Matrix) Toggle(i, j int) bool {
	m.check(i, j)
	idx := i*m.wordsPerRow + j/wordBits
	mask := uint64(1) << (uint(j) % wordBits)
	m.bits[idx] ^= mask
	return m.bits[idx]&mask != 0
}

// SetAll sets every bit.
func (m *Matrix) SetAll() {
	for i := 0; i < m.rows; i++ {
		row := m.bits[i*m.wordsPerRow : (i+1)*m.wordsPerRow]
		for w := range row {
			row[w] = ^uint64(0)
		}
		m.maskTail(row)
	}
}

// RowOnes returns the column indices of set bits in row i, ascending.
func (m *Matrix) RowOnes(i int) []int {
	return m.AppendRowOnes(nil, i)
}

// ColumnUnion ORs every row of m into dst, a bitmask with bit j set when
// any row has column j set — the paper's AO occupancy vector for a
// configuration, computed word-parallel. dst is grown if needed and
// returned; contents are overwritten.
func (m *Matrix) ColumnUnion(dst []uint64) []uint64 {
	if cap(dst) < m.wordsPerRow {
		dst = make([]uint64, m.wordsPerRow)
	}
	dst = dst[:m.wordsPerRow]
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.rows; r++ {
		row := m.bits[r*m.wordsPerRow : (r+1)*m.wordsPerRow]
		for w, word := range row {
			dst[w] |= word
		}
	}
	return dst
}

// RowOccupancy writes a bitmask with bit i set when row i has any bit set —
// the paper's AI occupancy vector for a configuration. dst is grown if
// needed and returned; contents are overwritten.
func (m *Matrix) RowOccupancy(dst []uint64) []uint64 {
	words := (m.rows + wordBits - 1) / wordBits
	if cap(dst) < words {
		dst = make([]uint64, words)
	}
	dst = dst[:words]
	for i := range dst {
		dst[i] = 0
	}
	for r := 0; r < m.rows; r++ {
		row := m.bits[r*m.wordsPerRow : (r+1)*m.wordsPerRow]
		for _, word := range row {
			if word != 0 {
				dst[r/wordBits] |= 1 << (uint(r) % wordBits)
				break
			}
		}
	}
	return dst
}
