// Sparse matrices: the dense packed-word representation extended with
// per-row sorted nonzero-column lists and a row-occupancy bitmask.
//
// At the scale the paper evaluates (N ≤ 128) the dense word scans are
// effectively free, but at N = 1024–4096 a request matrix is overwhelmingly
// sparse — a permutation pattern has one bit per row, 0.1% occupancy at
// N = 1024 — and every dense operation still touches all N²/64 words. A
// Sparse keeps the dense Matrix authoritative (word-level consumers keep
// working, bit-identically) while the lists let row iteration cost O(row
// nonzeros) instead of O(N/64) and whole-matrix iteration cost O(nonzeros)
// instead of O(N²/64).
package bitmat

import (
	"fmt"
	"math/bits"
)

// Sparse is a boolean matrix maintained in two synchronized forms: the dense
// packed Matrix and per-row sorted column lists plus a row-occupancy mask.
// All mutation goes through Set/Clear/Reset/CopyFrom/Or so the forms cannot
// diverge; FuzzSparseParity verifies that invariant word-for-word.
type Sparse struct {
	m       *Matrix
	rowMask []uint64  // bit i set when row i has any nonzero
	rows    [][]int32 // rows[i]: sorted column indices of row i's set bits
	count   int
}

// NewSparse returns an all-zero rows x cols sparse matrix.
func NewSparse(rows, cols int) *Sparse {
	return &Sparse{
		m:       New(rows, cols),
		rowMask: make([]uint64, (rows+wordBits-1)/wordBits),
		rows:    make([][]int32, rows),
	}
}

// Matrix returns the dense form. It is live — the same storage the Sparse
// maintains — so callers may read it freely but must never mutate it
// directly; use the Sparse mutators.
func (s *Sparse) Matrix() *Matrix { return s.m }

// RowMask returns the live row-occupancy bitmask: bit i is set when row i
// has at least one set bit. Read-only for callers.
func (s *Sparse) RowMask() []uint64 { return s.rowMask }

// Row returns row i's sorted column indices. The slice is live and
// read-only; it is invalidated by the next mutation of row i.
func (s *Sparse) Row(i int) []int32 { return s.rows[i] }

// Get reports whether bit (i, j) is set.
func (s *Sparse) Get(i, j int) bool { return s.m.Get(i, j) }

// IsZero reports whether no bit is set.
func (s *Sparse) IsZero() bool { return s.count == 0 }

// Count returns the number of set bits.
func (s *Sparse) Count() int { return s.count }

// Set sets bit (i, j), keeping the row list sorted. Setting an already-set
// bit is a no-op.
func (s *Sparse) Set(i, j int) {
	if s.m.Get(i, j) {
		return
	}
	s.m.Set(i, j)
	row := s.rows[i]
	at := searchInt32(row, int32(j))
	row = append(row, 0)
	copy(row[at+1:], row[at:])
	row[at] = int32(j)
	s.rows[i] = row
	s.rowMask[i>>6] |= 1 << (uint(i) & 63)
	s.count++
}

// Clear clears bit (i, j). Clearing an already-clear bit is a no-op.
func (s *Sparse) Clear(i, j int) {
	if !s.m.Get(i, j) {
		return
	}
	s.m.Clear(i, j)
	row := s.rows[i]
	at := searchInt32(row, int32(j))
	copy(row[at:], row[at+1:])
	s.rows[i] = row[:len(row)-1]
	if len(s.rows[i]) == 0 {
		s.rowMask[i>>6] &^= 1 << (uint(i) & 63)
	}
	s.count--
}

// Reset clears every bit. Row-list capacity is retained for reuse.
func (s *Sparse) Reset() {
	if s.count == 0 {
		return
	}
	s.m.Reset()
	for i := range s.rows {
		s.rows[i] = s.rows[i][:0]
	}
	for i := range s.rowMask {
		s.rowMask[i] = 0
	}
	s.count = 0
}

// CopyFrom overwrites s with src. Shapes must match.
func (s *Sparse) CopyFrom(src *Sparse) {
	s.m.CopyFrom(src.m)
	copy(s.rowMask, src.rowMask)
	for i := range s.rows {
		s.rows[i] = append(s.rows[i][:0], src.rows[i]...)
	}
	s.count = src.count
}

// Or sets s to s | o element-wise. Shapes must match. Cost is O(o.Count)
// list insertions, not a dense scan, so OR-ing a small matrix into a large
// one is cheap.
func (s *Sparse) Or(o *Sparse) {
	if o.count == 0 {
		return
	}
	for i := range o.rows {
		for _, j := range o.rows[i] {
			s.Set(i, int(j))
		}
	}
}

// CheckParity verifies that the dense and list forms agree, returning an
// error describing the first divergence. Tests and the fuzzer call it; it is
// O(rows x cols).
func (s *Sparse) CheckParity() error {
	n := 0
	for i := 0; i < s.m.Rows(); i++ {
		row := s.rows[i]
		for k, j := range row {
			if k > 0 && row[k-1] >= j {
				return fmt.Errorf("bitmat: sparse row %d not strictly sorted at %d", i, k)
			}
			if !s.m.Get(i, int(j)) {
				return fmt.Errorf("bitmat: sparse row %d lists (%d,%d) but dense bit is clear", i, i, j)
			}
		}
		if got := s.m.RowCount(i); got != len(row) {
			return fmt.Errorf("bitmat: row %d has %d dense bits but %d listed", i, got, len(row))
		}
		if want := len(row) > 0; MaskTest(s.rowMask, i) != want {
			return fmt.Errorf("bitmat: row-mask bit %d is %v, want %v", i, MaskTest(s.rowMask, i), want)
		}
		n += len(row)
	}
	if n != s.count {
		return fmt.Errorf("bitmat: count %d, lists hold %d", s.count, n)
	}
	return nil
}

// searchInt32 returns the insertion index of v in the sorted slice a.
func searchInt32(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// MaskTest reports whether bit i of the bitmask is set.
func MaskTest(m []uint64, i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }

// MaskSet sets bit i of the bitmask.
func MaskSet(m []uint64, i int) { m[i>>6] |= 1 << (uint(i) & 63) }

// MaskClear clears bit i of the bitmask.
func MaskClear(m []uint64, i int) { m[i>>6] &^= 1 << (uint(i) & 63) }

// AppendMaskOnesFrom appends the set bit positions of an n-bit bitmask to
// dst in rotated order — positions [from, n) ascending, then [0, from)
// ascending — and returns the extended slice. Bits at positions >= n must be
// zero. It is the mask counterpart of Matrix.AppendRowOnesFrom, used by the
// scheduler's rotated row scans.
func AppendMaskOnesFrom(dst []int, m []uint64, n, from int) []int {
	return appendOnesFrom(dst, m, from)
}

// appendOnesFrom is the shared two-segment rotated word scan over a packed
// bit slice: positions [from, len*64) ascending, then [0, from) ascending.
func appendOnesFrom(dst []int, words []uint64, from int) []int {
	wFrom := from / wordBits
	lowMask := (uint64(1) << (uint(from) % wordBits)) - 1
	// Segment 1: positions [from, end).
	for w := wFrom; w < len(words); w++ {
		word := words[w]
		if w == wFrom {
			word &^= lowMask
		}
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, w*wordBits+b)
			word &= word - 1
		}
	}
	// Segment 2: positions [0, from).
	for w := 0; w <= wFrom && from > 0; w++ {
		word := words[w]
		if w == wFrom {
			word &= lowMask
		}
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, w*wordBits+b)
			word &= word - 1
		}
	}
	return dst
}
