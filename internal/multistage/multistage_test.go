package multistage

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/topology"
)

func TestNewOmegaValidation(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100} {
		if _, err := NewOmega(n); err == nil {
			t.Errorf("NewOmega(%d) should fail", n)
		}
	}
	o, err := NewOmega(8)
	if err != nil {
		t.Fatal(err)
	}
	if o.Ports() != 8 || o.Stages() != 3 || o.SwitchesPerStage() != 4 {
		t.Fatalf("omega geometry wrong: %+v", o)
	}
}

func TestOmegaRouteIdentity(t *testing.T) {
	o, _ := NewOmega(8)
	cfg := bitmat.Identity(8)
	settings, err := o.Route(cfg)
	if err != nil {
		t.Fatalf("identity should be omega-realizable: %v", err)
	}
	for u := 0; u < 8; u++ {
		if got := o.Eval(settings, u); got != u {
			t.Fatalf("Eval(%d) = %d, want identity", u, got)
		}
	}
}

func TestOmegaSingleConnectionAlwaysRoutable(t *testing.T) {
	o, _ := NewOmega(16)
	for u := 0; u < 16; u++ {
		for v := 0; v < 16; v++ {
			cfg := bitmat.NewSquare(16)
			cfg.Set(u, v)
			settings, err := o.Route(cfg)
			if err != nil {
				t.Fatalf("single connection %d->%d unroutable: %v", u, v, err)
			}
			if got := o.Eval(settings, u); got != v {
				t.Fatalf("Eval(%d) = %d, want %d", u, got, v)
			}
		}
	}
}

func TestOmegaIsBlocking(t *testing.T) {
	// An Omega network realizes at most 2^(switches) of the N! permutations,
	// so some full permutations must be blocked. Verify by counting over
	// all 4! permutations of a 4-port network: some realizable, some not.
	o, _ := NewOmega(4)
	perms := [][]int32{}
	var gen func(cur []int32, used int)
	gen = func(cur []int32, used int) {
		if len(cur) == 4 {
			cp := make([]int32, 4)
			copy(cp, cur)
			perms = append(perms, cp)
			return
		}
		for v := 0; v < 4; v++ {
			if used&(1<<v) == 0 {
				gen(append(cur, int32(v)), used|1<<v)
			}
		}
	}
	gen(nil, 0)
	if len(perms) != 24 {
		t.Fatalf("generated %d permutations", len(perms))
	}
	realizable := 0
	for _, p := range perms {
		if o.CanRealize(p, o.NewState()) {
			realizable++
		}
	}
	// A 4-port omega has 4 switches -> at most 16 distinct mappings.
	if realizable == 0 || realizable >= 24 {
		t.Fatalf("realizable = %d of 24: an omega must realize some but not all permutations", realizable)
	}
	if realizable > 16 {
		t.Fatalf("realizable = %d exceeds the 2^4 switch-setting bound", realizable)
	}
}

func TestOmegaRouteRejectsBadConfigs(t *testing.T) {
	o, _ := NewOmega(8)
	if _, err := o.Route(bitmat.NewSquare(4)); err == nil {
		t.Error("wrong shape should fail")
	}
	bad := bitmat.NewSquare(8)
	bad.Set(0, 1)
	bad.Set(2, 1)
	if _, err := o.Route(bad); err == nil {
		t.Error("non-permutation should fail")
	}
}

func TestOmegaEvalPanics(t *testing.T) {
	o, _ := NewOmega(4)
	settings, _ := o.Route(bitmat.NewSquare(4))
	for i, fn := range []func(){
		func() { o.Eval(settings, -1) },
		func() { o.Eval(settings, 4) },
		func() { o.Eval(Settings{}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestQuickOmegaRouteMatchesEval(t *testing.T) {
	o, _ := NewOmega(16)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Random sparse partial permutation: route if possible and verify.
		cfg := bitmat.NewSquare(16)
		perm := rng.Perm(16)
		for i, v := range perm {
			if rng.Float64() < 0.4 && i != v {
				if !cfg.RowAny(i) && !cfg.ColAny(v) {
					cfg.Set(i, v)
				}
			}
		}
		settings, err := o.Route(cfg)
		if err != nil {
			return true // blocked is a legal outcome; realizability tested elsewhere
		}
		ok := true
		cfg.Ones(func(u, v int) bool {
			if o.Eval(settings, u) != v {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeOmegaCoversAndRealizes(t *testing.T) {
	o, _ := NewOmega(16)
	rng := rand.New(rand.NewSource(5))
	ws := topology.NewWorkingSet(16)
	for ws.Len() < 40 {
		u, v := rng.Intn(16), rng.Intn(16)
		if u != v {
			ws.Add(topology.Conn{Src: u, Dst: v})
		}
	}
	configs, err := DecomposeOmega(ws, o)
	if err != nil {
		t.Fatal(err)
	}
	state := o.NewState()
	union := topology.NewWorkingSet(16)
	total := 0
	for i, cfg := range configs {
		if !o.CanRealize(cfg, state) {
			t.Fatalf("config %d not omega-realizable", i)
		}
		for u, v := range cfg {
			if v >= 0 {
				total++
				union.Add(topology.Conn{Src: u, Dst: int(v)})
			}
		}
	}
	if total != ws.Len() || !slices.Equal(union.Conns(), ws.Conns()) {
		t.Fatal("omega decomposition must exactly cover the working set")
	}
	// The omega's blocking constraints can only increase the configuration
	// count over the crossbar optimum.
	if len(configs) < len(topology.Decompose(ws)) {
		t.Fatalf("omega decomposition (%d) cannot beat the crossbar optimum (%d)",
			len(configs), len(topology.Decompose(ws)))
	}
}

func TestDecomposeOmegaNeedsMoreSlotsThanCrossbar(t *testing.T) {
	// Take a full permutation the omega cannot realize in one pass (one
	// must exist: TestOmegaIsBlocking). A crossbar caches it in a single
	// configuration; the omega needs at least two TDM slots — the extra
	// multiplexing degree a blocking fabric pays.
	const n = 8
	o, _ := NewOmega(n)
	var blocked []int32
	state := o.NewState()
	var gen func(cur []int32, used int)
	gen = func(cur []int32, used int) {
		if blocked != nil {
			return
		}
		if len(cur) == n {
			fixedPoint := false
			for i, v := range cur {
				if i == int(v) {
					fixedPoint = true
					break
				}
			}
			if !fixedPoint && !o.CanRealize(cur, state) {
				blocked = append([]int32(nil), cur...)
			}
			return
		}
		for v := 0; v < n; v++ {
			if used&(1<<v) == 0 {
				gen(append(cur, int32(v)), used|1<<v)
			}
		}
	}
	gen(nil, 0)
	if blocked == nil {
		t.Fatal("no omega-blocked derangement found: the fabric model is too permissive")
	}
	ws := topology.NewWorkingSet(n)
	for u, v := range blocked {
		ws.Add(topology.Conn{Src: u, Dst: int(v)})
	}
	crossbar := topology.Decompose(ws)
	if len(crossbar) != 1 {
		t.Fatalf("a permutation should be one crossbar config, got %d", len(crossbar))
	}
	omega, err := DecomposeOmega(ws, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(omega) < 2 {
		t.Fatalf("the blocked permutation must need at least 2 omega configs, got %d", len(omega))
	}
	t.Logf("blocked permutation %v: crossbar 1 config, omega %d configs", blocked, len(omega))
}

func TestDecomposeOmegaShapeMismatch(t *testing.T) {
	o, _ := NewOmega(8)
	if _, err := DecomposeOmega(topology.NewWorkingSet(4), o); err == nil {
		t.Fatal("port mismatch should error")
	}
}

func TestCheckOmega(t *testing.T) {
	for _, tc := range []struct {
		n      int
		stages int // 0 means invalid
	}{
		{-2, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 0}, {6, 0}, {8, 3}, {100, 0}, {1024, 10},
	} {
		t.Run(fmt.Sprintf("n=%d", tc.n), func(t *testing.T) {
			err := CheckOmega(tc.n)
			o, nerr := NewOmega(tc.n)
			if (err == nil) != (nerr == nil) {
				t.Fatalf("CheckOmega = %v, NewOmega = %v: they must agree", err, nerr)
			}
			if tc.stages == 0 {
				want := fmt.Sprintf("omega size %d must be a power of two >= 2", tc.n)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Fatalf("CheckOmega = %v, want an error containing %q", err, want)
				}
				return
			}
			if err != nil {
				t.Fatalf("CheckOmega = %v, want nil", err)
			}
			if o.Stages() != tc.stages {
				t.Fatalf("Stages() = %d, want %d", o.Stages(), tc.stages)
			}
		})
	}
	if n := testing.AllocsPerRun(10, func() { _ = CheckOmega(1 << 20) }); n != 0 {
		t.Errorf("CheckOmega allocated %v times, want 0", n)
	}
}

// TestOmegaRealizesEveryShift checks the classic Omega property that every
// uniform cyclic shift u -> u+k mod N routes in one pass.
func TestOmegaRealizesEveryShift(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			o, _ := NewOmega(n)
			for k := 0; k < n; k++ {
				perm := make([]int32, n)
				for u := range perm {
					perm[u] = int32((u + k) % n)
				}
				settings, err := o.Route(bitmat.FromPermutation(perm))
				if err != nil {
					t.Fatalf("shift by %d: %v", k, err)
				}
				for u, v := range perm {
					if got := o.Eval(settings, u); got != int(v) {
						t.Fatalf("shift by %d: Eval(%d) = %d, want %d", k, u, got, v)
					}
				}
			}
		})
	}
}

// TestOmegaBlocksBitReverse checks that the bit-reversal permutation, the
// pattern on which the Omega fabric loses most of its efficiency, does not
// route in one pass and first-fits into more than one configuration.
func TestOmegaBlocksBitReverse(t *testing.T) {
	for _, n := range []int{8, 16, 64} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			o, _ := NewOmega(n)
			perm := make([]int32, n)
			var conns []topology.Conn
			for u := range perm {
				perm[u] = int32(bits.Reverse(uint(u)) >> (bits.UintSize - o.Stages()))
				conns = append(conns, topology.Conn{Src: u, Dst: int(perm[u])})
			}
			state := o.NewState()
			if o.CanRealize(perm, state) {
				t.Fatalf("bit reverse %v routed in one pass", perm)
			}
			if _, err := o.Route(bitmat.FromPermutation(perm)); err == nil {
				t.Fatal("Route accepted a configuration CanRealize rejects")
			}
			canRealize := func(cfg []int32) bool { return o.CanRealize(cfg, state) }
			if configs := FirstFit(n, conns, canRealize); len(configs) < 2 {
				t.Fatalf("bit reverse first-fits into %d configurations, want at least 2", len(configs))
			}
		})
	}
}

// TestOmegaRealizableCount enumerates every full permutation of small Omega
// networks. The path from each input to each output is unique, so each of
// the 2^(N/2 * log2 N) switch settings realizes a distinct permutation:
// exactly that many permutations must route, and Route must agree with
// CanRealize and Eval on every one.
func TestOmegaRealizableCount(t *testing.T) {
	for _, n := range []int{4, 8} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			o, _ := NewOmega(n)
			realizable := 0
			perm := make([]int32, n)
			state := o.NewState()
			var gen func(i, used int)
			gen = func(i, used int) {
				if i == n {
					settings, err := o.Route(bitmat.FromPermutation(perm))
					if (err == nil) != o.CanRealize(perm, state) {
						t.Fatalf("%v: Route error %v disagrees with CanRealize", perm, err)
					}
					if err != nil {
						return
					}
					realizable++
					for u, v := range perm {
						if got := o.Eval(settings, u); got != int(v) {
							t.Fatalf("%v: Eval(%d) = %d, want %d", perm, u, got, v)
						}
					}
					return
				}
				for v := 0; v < n; v++ {
					if used&(1<<v) == 0 {
						perm[i] = int32(v)
						gen(i+1, used|1<<v)
					}
				}
			}
			gen(0, 0)
			if want := 1 << (o.SwitchesPerStage() * o.Stages()); realizable != want {
				t.Fatalf("%d permutations route, want %d", realizable, want)
			}
		})
	}
}
