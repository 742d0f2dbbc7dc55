package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pmsnet/internal/bitmat"
)

// referencePass is a deliberately naive, cell-by-cell transcription of the
// paper's Tables 1 and 2, used to cross-validate the production
// ScheduleSlot implementation. It walks the SL array in plain row-major
// order (no priority rotation), carrying the A (output-occupied) and D
// (input-occupied) signals exactly as the hardware ripple would.
func referencePass(b, bstar, req *bitmat.Matrix, n int) (newB *bitmat.Matrix, est, rel [][2]int) {
	newB = b.Clone()
	occOut := make([]bool, n) // AO
	occIn := make([]bool, n)  // AI
	for p := 0; p < n; p++ {
		occOut[p] = b.ColAny(p)
		occIn[p] = b.RowAny(p)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			r := req.Get(u, v)
			inSlot := newB.Get(u, v)
			inAny := bstar.Get(u, v)
			// Table 1: L = (release) or (establish).
			l := (!r && inSlot) || (r && !inAny)
			if !l {
				continue
			}
			if inSlot {
				// Table 2, (L=1, A=1, D=1): release.
				newB.Clear(u, v)
				occOut[v] = false
				occIn[u] = false
				rel = append(rel, [2]int{u, v})
			} else if !occOut[v] && !occIn[u] {
				// Table 2, (L=1, A=0, D=0): establish.
				newB.Set(u, v)
				occOut[v] = true
				occIn[u] = true
				est = append(est, [2]int{u, v})
			}
		}
	}
	return newB, est, rel
}

// TestQuickScheduleSlotMatchesReference drives random scheduler states and
// request matrices through both implementations and demands identical
// results: same final configuration, same establish/release sets in the
// same scan order.
func TestQuickScheduleSlotMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		k := 1 + rng.Intn(3)
		s := MustScheduler(Params{N: n, K: k}) // no rotation: reference is row-major

		// Random pre-state: load disjoint-port partial permutations.
		for slot := 0; slot < k; slot++ {
			perm := make([]int32, n)
			for i, v := range rng.Perm(n) {
				perm[i] = int32(v)
				if rng.Float64() < 0.6 || v == i {
					perm[i] = -1
				}
			}
			if err := s.LoadConfig(slot, perm, false); err != nil {
				return false
			}
		}

		slot := rng.Intn(k)
		req := bitmat.NewSquare(n)
		for e := 0; e < n*2; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				req.Set(u, v)
			}
		}

		before := s.Config(slot)
		bstar := s.BStar()
		wantB, wantEst, wantRel := referencePass(before, bstar, req, n)

		est, rel := s.ScheduleSlot(req, slot)
		if !s.Config(slot).Equal(wantB) {
			return false
		}
		if len(est) != len(wantEst) || len(rel) != len(wantRel) {
			return false
		}
		for i, e := range est {
			if e.Src != wantEst[i][0] || e.Dst != wantEst[i][1] {
				return false
			}
		}
		for i, e := range rel {
			if e.Src != wantRel[i][0] || e.Dst != wantRel[i][1] {
				return false
			}
		}
		return s.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConstraintHookRespected: with a CanEstablish constraint, no
// establishment ever violates it and releases are unaffected.
func TestQuickConstraintHookRespected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		// Constraint: outputs in the top half are unreachable (a fabric
		// with a dead region) — configuration-independent so it can be
		// re-validated after the pass.
		constraint := func(_ []int32, u, v int) bool {
			return v < n/2
		}
		s := MustScheduler(Params{N: n, K: 2, CanEstablish: constraint})
		for pass := 0; pass < 10; pass++ {
			req := bitmat.NewSquare(n)
			for e := 0; e < n; e++ {
				u, v := rng.Intn(n), rng.Intn(n)
				if u != v {
					req.Set(u, v)
				}
			}
			res := s.Pass(req)
			for _, c := range res.Established {
				if c.Dst >= n/2 {
					return false
				}
			}
			if s.BStar().ColAny(n - 1) {
				return false
			}
			if err := s.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
