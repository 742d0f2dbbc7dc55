// Package bitmat provides word-packed bitsets: bitmask helpers over a
// []uint64, which the simulator uses for port-occupancy masks and sets over
// connection ids, and dense boolean matrices. The matrix is the paper's
// form of the scheduler's state — the request matrix R, the per-slot
// configurations B(s) and their OR B*, rows indexing input ports and
// columns output ports — and the form the test oracles of other packages
// compute in, comparing the simulator's port maps through FromPermutation
// and PortMap.
package bitmat

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Matrix is a dense rows x cols boolean matrix. The zero value is unusable;
// create instances with New. Methods panic on out-of-range indices and on
// shape mismatches, mirroring the slice-indexing behaviour of the language:
// these are programmer errors, not runtime conditions.
type Matrix struct {
	rows, cols  int
	wordsPerRow int
	bits        []uint64
}

// New returns an all-zero rows x cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("bitmat: negative dimensions %dx%d", rows, cols))
	}
	wpr := (cols + wordBits - 1) / wordBits
	return &Matrix{
		rows:        rows,
		cols:        cols,
		wordsPerRow: wpr,
		bits:        make([]uint64, rows*wpr),
	}
}

// NewSquare returns an all-zero n x n matrix.
func NewSquare(n int) *Matrix { return New(n, n) }

// Identity returns the n x n identity matrix (the "straight-through"
// crossbar configuration: input i connected to output i).
func Identity(n int) *Matrix {
	m := NewSquare(n)
	for i := 0; i < n; i++ {
		m.Set(i, i)
	}
	return m
}

// FromPermutation builds the n x n matrix of a port map: bit (i, perm[i]) is
// set for every i with perm[i] >= 0, and entries with perm[i] < 0 leave row
// i empty. It panics if two rows map to the same output (the result would
// not be a partial permutation).
func FromPermutation(perm []int32) *Matrix {
	n := len(perm)
	m := NewSquare(n)
	seen := make([]bool, n)
	for i, p := range perm {
		if p < 0 {
			continue
		}
		if int(p) >= n {
			panic(fmt.Sprintf("bitmat: permutation entry %d out of range [0,%d)", p, n))
		}
		if seen[p] {
			panic(fmt.Sprintf("bitmat: duplicate output %d in permutation", p))
		}
		seen[p] = true
		m.Set(i, int(p))
	}
	return m
}

// PortMap returns the square matrix as a port map: entry i is row i's set
// column, or -1 when the row is empty. It panics on a row with more than
// one bit, which no port map can hold; two rows sharing a column pass
// through, so the consumer's own check sees them.
func (m *Matrix) PortMap() []int32 {
	if m.rows != m.cols {
		panic(fmt.Sprintf("bitmat: port map of a %dx%d matrix", m.rows, m.cols))
	}
	cfg := make([]int32, m.rows)
	for i := range cfg {
		cfg[i] = -1
	}
	m.Ones(func(i, j int) bool {
		if cfg[i] >= 0 {
			panic(fmt.Sprintf("bitmat: row %d has two bits, not a port map", i))
		}
		cfg[i] = int32(j)
		return true
	})
	return cfg
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// indexError is the panic value of an out-of-range bit index. It is a
// small value formatted only when printed, which keeps check and the bit
// probes built on it under the Go inliner's budget: a fmt.Sprintf call in
// the failure branch alone costs more than the whole probe.
type indexError struct{ i, j, rows, cols int }

func (e indexError) Error() string {
	return fmt.Sprintf("bitmat: index (%d,%d) out of range %dx%d", e.i, e.j, e.rows, e.cols)
}

// check panics unless (i, j) is inside the matrix. The unsigned compares
// also reject negative indices.
func (m *Matrix) check(i, j int) {
	if uint(i) >= uint(m.rows) || uint(j) >= uint(m.cols) {
		panic(indexError{i, j, m.rows, m.cols})
	}
}

// Get reports whether bit (i, j) is set.
func (m *Matrix) Get(i, j int) bool {
	m.check(i, j)
	w := m.bits[i*m.wordsPerRow+j/wordBits]
	return w&(1<<(uint(j)%wordBits)) != 0
}

// Set sets bit (i, j).
func (m *Matrix) Set(i, j int) {
	m.check(i, j)
	m.bits[i*m.wordsPerRow+j/wordBits] |= 1 << (uint(j) % wordBits)
}

// Clear clears bit (i, j).
func (m *Matrix) Clear(i, j int) {
	m.check(i, j)
	m.bits[i*m.wordsPerRow+j/wordBits] &^= 1 << (uint(j) % wordBits)
}

// Reset clears every bit.
func (m *Matrix) Reset() {
	for i := range m.bits {
		m.bits[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.bits, m.bits)
	return c
}

// CopyFrom overwrites m with src. Shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) {
	m.sameShape(src)
	copy(m.bits, src.bits)
}

func (m *Matrix) sameShape(o *Matrix) {
	if m.rows != o.rows || m.cols != o.cols {
		panic(fmt.Sprintf("bitmat: shape mismatch %dx%d vs %dx%d", m.rows, m.cols, o.rows, o.cols))
	}
}

// Equal reports whether m and o have identical shape and contents.
func (m *Matrix) Equal(o *Matrix) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for i, w := range m.bits {
		if w != o.bits[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether no bit is set. The TDM counter uses this to skip
// empty configurations.
func (m *Matrix) IsZero() bool {
	for _, w := range m.bits {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits (established connections).
func (m *Matrix) Count() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Or sets m to m | o element-wise. Shapes must match.
func (m *Matrix) Or(o *Matrix) {
	m.sameShape(o)
	for i := range m.bits {
		m.bits[i] |= o.bits[i]
	}
}

// AndNot sets m to m &^ o element-wise. Shapes must match.
func (m *Matrix) AndNot(o *Matrix) {
	m.sameShape(o)
	for i := range m.bits {
		m.bits[i] &^= o.bits[i]
	}
}

// RowAny reports whether any bit in row i is set. For a configuration matrix
// this is the paper's AI(i): input port i is occupied in this slot.
func (m *Matrix) RowAny(i int) bool {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("bitmat: row %d out of range %d", i, m.rows))
	}
	for _, w := range m.bits[i*m.wordsPerRow : (i+1)*m.wordsPerRow] {
		if w != 0 {
			return true
		}
	}
	return false
}

// ColAny reports whether any bit in column j is set. For a configuration
// matrix this is the paper's AO(j): output port j is occupied in this slot.
func (m *Matrix) ColAny(j int) bool {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("bitmat: col %d out of range %d", j, m.cols))
	}
	word, mask := j/wordBits, uint64(1)<<(uint(j)%wordBits)
	for i := 0; i < m.rows; i++ {
		if m.bits[i*m.wordsPerRow+word]&mask != 0 {
			return true
		}
	}
	return false
}

// AppendRowOnesFrom appends the set columns of row i to dst in rotated
// order: columns [from, cols) ascending, then [0, from) ascending. This is
// the scheduling array's rotated-priority column scan done word-at-a-time
// instead of bit-at-a-time.
func (m *Matrix) AppendRowOnesFrom(dst []int, i, from int) []int {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("bitmat: row %d out of range %d", i, m.rows))
	}
	if from < 0 || from >= m.cols {
		panic(fmt.Sprintf("bitmat: column origin %d out of range %d", from, m.cols))
	}
	return appendOnesFrom(dst, m.bits[i*m.wordsPerRow:(i+1)*m.wordsPerRow], from)
}

// FirstInRow returns the first set column in row i, or -1 if the row is
// empty. In a partial permutation this is *the* connection of input i.
func (m *Matrix) FirstInRow(i int) int {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("bitmat: row %d out of range %d", i, m.rows))
	}
	row := m.bits[i*m.wordsPerRow : (i+1)*m.wordsPerRow]
	for w, word := range row {
		if word != 0 {
			return w*wordBits + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// IsPartialPermutation reports whether m has at most one set bit per row and
// per column — the crossbar-realizability constraint on a configuration.
// It runs in O(rows x words-per-row): each row must hold at most one bit,
// and the running OR of previous rows detects any column reuse. Up to 1024
// columns the running OR lives on the stack, so the check does not
// allocate.
func (m *Matrix) IsPartialPermutation() bool {
	var stack [16]uint64
	var seen []uint64
	if m.wordsPerRow <= len(stack) {
		seen = stack[:m.wordsPerRow]
	} else {
		seen = make([]uint64, m.wordsPerRow)
	}
	for i := 0; i < m.rows; i++ {
		row := m.bits[i*m.wordsPerRow : (i+1)*m.wordsPerRow]
		ones := 0
		for w, word := range row {
			ones += bits.OnesCount64(word)
			if word&seen[w] != 0 {
				return false
			}
			seen[w] |= word
		}
		if ones > 1 {
			return false
		}
	}
	return true
}

// Ones calls fn for every set bit in row-major order. If fn returns false the
// iteration stops. The scan is word-level and does not allocate.
func (m *Matrix) Ones(fn func(i, j int) bool) {
	for i := 0; i < m.rows; i++ {
		row := m.bits[i*m.wordsPerRow : (i+1)*m.wordsPerRow]
		for w, word := range row {
			for word != 0 {
				b := bits.TrailingZeros64(word)
				if !fn(i, w*wordBits+b) {
					return
				}
				word &= word - 1
			}
		}
	}
}

// OrAndNot sets m to m | (a &^ b) element-wise in one fused scan. The
// pre-scheduling logic uses it to build the change matrix
// L = (B(s) &^ Reff) | (Reff &^ B*) without temporaries. Shapes must match.
func (m *Matrix) OrAndNot(a, b *Matrix) {
	m.sameShape(a)
	m.sameShape(b)
	for i := range m.bits {
		m.bits[i] |= a.bits[i] &^ b.bits[i]
	}
}

// ContainedIn reports whether every set bit of m is also set in o.
func (m *Matrix) ContainedIn(o *Matrix) bool {
	m.sameShape(o)
	for i, w := range m.bits {
		if w&^o.bits[i] != 0 {
			return false
		}
	}
	return true
}

// String renders the matrix as rows of '.' and '1' characters, for debugging
// and golden tests.
func (m *Matrix) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if m.Get(i, j) {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('.')
			}
		}
		if i != m.rows-1 {
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
