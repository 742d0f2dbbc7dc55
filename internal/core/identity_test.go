package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"pmsnet/internal/bitmat"
)

// Identity suite for the sparse request path: it is a pure performance
// feature, so the pinned property is bit-identity — same PassResults, same
// final state — against the dense scheduler, under every parameter the two
// paths interact with (rotation, latching, SL copies and a fabric
// CanEstablish constraint).

// drivePair drives two schedulers through the same random request sequence,
// feeding dense the dense matrix through Pass and other the same requests
// through PassSparse, and fails on the first divergence in PassResult or
// visible state.
func drivePair(t errorfer, rng *rand.Rand, n, passes int, dense, other *Scheduler) bool {
	r := bitmat.NewSquare(n)
	sp := bitmat.NewSparse(n, n)
	for pass := 0; pass < passes; pass++ {
		// Random occupancy per pass, biased low to exercise the sparse
		// fast path, with occasional dense bursts.
		edges := rng.Intn(n)
		if rng.Intn(4) == 0 {
			edges = n * 2
		}
		for e := 0; e < edges; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			if rng.Intn(5) == 0 {
				r.Clear(u, v)
				sp.Clear(u, v)
			} else {
				r.Set(u, v)
				sp.Set(u, v)
			}
		}
		want := dense.Pass(r)
		got := other.PassSparse(sp)
		if !passResultsEqual(want, got) {
			t.Errorf("pass %d: results diverge:\n dense %+v\n other %+v", pass, want, got)
			return false
		}
		if !schedStatesEqual(t, dense, other) {
			t.Errorf("pass %d: scheduler states diverge", pass)
			return false
		}
		// Exercise the mutators the index maintains, identically on both.
		if rng.Intn(3) == 0 && dense.Connections() > 0 {
			u, v := rng.Intn(n), rng.Intn(n)
			if dense.Connected(u, v) {
				dense.Evict(u, v)
				other.Evict(u, v)
				r.Clear(u, v)
				sp.Clear(u, v)
			}
		}
		if rng.Intn(7) == 0 {
			p := rng.Intn(n)
			dense.EvictPort(p)
			other.EvictPort(p)
			for q := 0; q < n; q++ {
				r.Clear(p, q)
				r.Clear(q, p)
				sp.Clear(p, q)
				sp.Clear(q, p)
			}
		}
		if err := other.CheckInvariants(); err != nil {
			t.Errorf("pass %d: invariants: %v", pass, err)
			return false
		}
	}
	return true
}

type errorfer interface {
	Errorf(format string, args ...any)
}

func passResultsEqual(a, b PassResult) bool {
	if len(a.Slots) != len(b.Slots) || len(a.Established) != len(b.Established) ||
		len(a.Released) != len(b.Released) {
		return false
	}
	for i := range a.Slots {
		if a.Slots[i] != b.Slots[i] {
			return false
		}
	}
	for i := range a.Established {
		if a.Established[i] != b.Established[i] {
			return false
		}
	}
	for i := range a.Released {
		if a.Released[i] != b.Released[i] {
			return false
		}
	}
	return true
}

func schedStatesEqual(t errorfer, a, b *Scheduler) bool {
	if !a.BStar().Equal(b.BStar()) {
		t.Errorf("B* diverged:\n%v\nvs\n%v", a.BStar(), b.BStar())
		return false
	}
	for slot := 0; slot < a.Params().K; slot++ {
		if !a.Config(slot).Equal(b.Config(slot)) {
			t.Errorf("slot %d config diverged", slot)
			return false
		}
	}
	as, bs := a.Stats(), b.Stats()
	if as != bs {
		t.Errorf("stats diverged: %+v vs %+v", as, bs)
		return false
	}
	return true
}

// evenDiagonal is a fabric constraint that reads only (b, u, v).
func evenDiagonal(b *bitmat.Matrix, u, v int) bool {
	return (u+v)%4 != 1 || b.RowCount(u%b.Rows()) == 0
}

func randomPairParams(rng *rand.Rand) (Params, int) {
	n := 4 + rng.Intn(20)
	p := Params{
		N:              n,
		K:              1 + rng.Intn(4),
		RotatePriority: rng.Intn(2) == 0,
		SkipEmptySlots: rng.Intn(2) == 0,
		LatchRequests:  rng.Intn(3) == 0,
	}
	p.SLCopies = 1 + rng.Intn(p.K)
	if rng.Intn(3) == 0 {
		p.CanEstablish = evenDiagonal
	}
	return p, n
}

// TestQuickSparseDenseParity pins the sparse request path to the dense one:
// same pass results and same scheduler state at every step, across random
// parameter combinations including a fabric constraint.
func TestQuickSparseDenseParity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, n := randomPairParams(rng)
		dense := MustScheduler(p)
		sparse := MustScheduler(p)
		return drivePair(t, rng, n, 25, dense, sparse)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickAlternativeAlgorithmsValid drives iSLIP and wavefront matching
// under random requests and checks the structural guarantees every matching
// algorithm must keep: partial-permutation configurations, a coherent B*,
// no connection that was never requested, and full invariant checks.
func TestQuickAlternativeAlgorithmsValid(t *testing.T) {
	for _, alg := range []Algorithm{AlgISLIP, AlgWavefront} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				n := 2 + rng.Intn(14)
				s := MustScheduler(Params{
					N:              n,
					K:              1 + rng.Intn(4),
					Algorithm:      alg,
					RotatePriority: rng.Intn(2) == 0,
					SkipEmptySlots: rng.Intn(2) == 0,
				})
				ever := bitmat.NewSquare(n)
				for pass := 0; pass < 20; pass++ {
					r := bitmat.NewSquare(n)
					for e := 0; e < n; e++ {
						u, v := rng.Intn(n), rng.Intn(n)
						if u != v {
							r.Set(u, v)
							ever.Set(u, v)
						}
					}
					s.Pass(r)
					if err := s.CheckInvariants(); err != nil {
						t.Logf("seed %d pass %d: %v", seed, pass, err)
						return false
					}
					if !s.BStar().ContainedIn(ever) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAlternativeAlgorithmsServePermutation pins the matching quality both
// alternatives are known for: a full permutation request set is conflict-
// free, so it must be fully established within K passes and then stay put.
func TestAlternativeAlgorithmsServePermutation(t *testing.T) {
	for _, alg := range []Algorithm{AlgISLIP, AlgWavefront} {
		alg := alg
		t.Run(alg.String(), func(t *testing.T) {
			const n, k = 16, 3
			s := MustScheduler(Params{N: n, K: k, Algorithm: alg, RotatePriority: true, SkipEmptySlots: true})
			rng := rand.New(rand.NewSource(5))
			r := bitmat.NewSquare(n)
			for u, v := range rng.Perm(n) {
				if u != v {
					r.Set(u, v)
				}
			}
			for pass := 0; pass < k; pass++ {
				s.Pass(r)
			}
			if !r.ContainedIn(s.BStar()) {
				t.Fatalf("%s: permutation not fully established after %d passes", alg, k)
			}
			res := s.Pass(r)
			if len(res.Established) != 0 || len(res.Released) != 0 {
				t.Fatalf("%s: stable requests churned: %+v", alg, res)
			}
		})
	}
}

// TestAlternativeAlgorithmsRespectCanEstablish pins the fabric hook on the
// alternative matchers: a constraint that rejects every connection must keep
// the fabric empty.
func TestAlternativeAlgorithmsRespectCanEstablish(t *testing.T) {
	for _, alg := range []Algorithm{AlgISLIP, AlgWavefront} {
		s := MustScheduler(Params{
			N: 8, K: 2, Algorithm: alg,
			CanEstablish: func(b *bitmat.Matrix, u, v int) bool { return false },
		})
		r := bitmat.NewSquare(8)
		for u := 0; u < 8; u++ {
			r.Set(u, (u+1)%8)
		}
		for pass := 0; pass < 4; pass++ {
			if res := s.Pass(r); len(res.Established) != 0 {
				t.Fatalf("%s: established %d connections past an all-deny constraint", alg, len(res.Established))
			}
		}
		if s.Connections() != 0 {
			t.Fatalf("%s: %d connections past an all-deny constraint", alg, s.Connections())
		}
	}
}

func TestAlgorithmStringAndParse(t *testing.T) {
	for _, alg := range algorithmValues {
		got, err := ParseAlgorithm(alg.String())
		if err != nil || got != alg {
			t.Errorf("round trip %v: got %v, err %v", alg, got, err)
		}
	}
	if _, err := ParseAlgorithm("nope"); err == nil {
		t.Error("expected an error for an unknown algorithm name")
	}
	if got := Algorithm(99).String(); got != "Algorithm(99)" {
		t.Errorf("out-of-range String() = %q", got)
	}
	names := AlgorithmNames()
	if len(names) != len(algorithmValues) {
		t.Fatalf("AlgorithmNames() = %v, want %d names", names, len(algorithmValues))
	}
	p := Params{N: 4, K: 2, Algorithm: Algorithm(7)}
	if err := p.withDefaults().Validate(); err == nil {
		t.Error("unknown algorithm must fail validation")
	}
}

// TestSlotIndexAccessors pins the incrementally-maintained per-pair slot
// index against a brute-force rescan of the K configuration matrices.
func TestSlotIndexAccessors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, k = 12, 4
	s := MustScheduler(Params{N: n, K: k, RotatePriority: true})
	r := bitmat.NewSquare(n)
	for pass := 0; pass < 40; pass++ {
		for e := 0; e < n/2; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				if rng.Intn(4) == 0 {
					r.Clear(u, v)
				} else {
					r.Set(u, v)
				}
			}
		}
		s.Pass(r)
		if pass%5 == 0 && s.Connections() > 0 {
			u, v := rng.Intn(n), rng.Intn(n)
			if s.Connected(u, v) {
				s.AddBandwidth(u, v, 1)
			}
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				var want []int
				for slot := 0; slot < k; slot++ {
					if s.Config(slot).Get(u, v) {
						want = append(want, slot)
					}
				}
				got := s.SlotsOf(u, v)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("SlotsOf(%d,%d) = %v, want %v", u, v, got, want)
				}
				if s.Connected(u, v) != (len(want) > 0) {
					t.Fatalf("Connected(%d,%d) inconsistent with configs", u, v)
				}
			}
		}
	}
}
