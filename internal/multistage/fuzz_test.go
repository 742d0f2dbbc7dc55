package multistage

import (
	"testing"

	"pmsnet/internal/bitmat"
)

// FuzzDecompose feeds arbitrary demand matrices to the BvN decomposition and
// checks its library contract: the result is a set of conflict-free partial
// permutation sub-matrices whose weighted sum reproduces the input exactly,
// with positive weights and no more terms than nonzero entries.
func FuzzDecompose(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(8), []byte{0xff, 0x00, 0x10, 0x42})
	f.Add(uint8(1), []byte{})
	f.Add(uint8(6), []byte("birkhoff von neumann"))
	f.Fuzz(func(t *testing.T, nb uint8, tape []byte) {
		n := 1 + int(nb%12)
		d := make([]int64, n*n)
		for i, b := range tape {
			if i >= len(d) {
				break
			}
			d[i] = int64(b)
		}
		terms, err := DecomposeBvN(n, func(u, v int) int64 { return d[u*n+v] })
		if err != nil {
			t.Fatalf("DecomposeBvN(n=%d): %v", n, err)
		}
		sum := make([]int64, n*n)
		nnz := 0
		for _, w := range d {
			if w > 0 {
				nnz++
			}
		}
		if len(terms) > nnz {
			t.Fatalf("%d terms exceed support size %d", len(terms), nnz)
		}
		for ti, term := range terms {
			if term.Weight <= 0 {
				t.Fatalf("term %d: non-positive weight %d", ti, term.Weight)
			}
			cfg := bitmat.FromPermutation(term.Config)
			if len(term.Config) != n || cfg.IsZero() {
				t.Fatalf("term %d: not a nonempty conflict-free partial permutation", ti)
			}
			cfg.Ones(func(u, v int) bool {
				sum[u*n+v] += term.Weight
				return true
			})
		}
		for i := range d {
			if sum[i] != d[i] {
				t.Fatalf("entry %d: terms sum to %d, demand is %d", i, sum[i], d[i])
			}
		}
	})
}
