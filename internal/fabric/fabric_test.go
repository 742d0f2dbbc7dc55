package fabric

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/multistage"
	"pmsnet/internal/topology"
)

func TestTechnologyDelays(t *testing.T) {
	if Digital.TraversalDelay() != 10 {
		t.Fatalf("digital traversal = %v, want 10ns", Digital.TraversalDelay())
	}
	if LVDS.TraversalDelay() != 0 {
		t.Fatalf("lvds traversal = %v, want 0ns", LVDS.TraversalDelay())
	}
	if Digital.String() != "digital" || LVDS.String() != "lvds" {
		t.Fatal("Technology.String wrong")
	}
	if Technology(99).String() == "" {
		t.Fatal("unknown technology should still render")
	}
}

func TestUnknownTechnologyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown technology delay")
		}
	}()
	Technology(99).TraversalDelay()
}

func TestApplyAndQuery(t *testing.T) {
	c := NewCrossbar(4, LVDS, 0)
	if c.Ports() != 4 || c.Technology() != LVDS || c.ReconfigTime() != 0 {
		t.Fatal("constructor fields wrong")
	}
	cfg := bitmat.FromPermutation([]int{2, -1, 0, 3})
	if err := c.Apply(cfg); err != nil {
		t.Fatal(err)
	}
	if c.Applied() != 1 {
		t.Fatalf("Applied = %d, want 1", c.Applied())
	}
	if c.OutputFor(0) != 2 || c.OutputFor(1) != -1 {
		t.Fatal("OutputFor wrong")
	}
	if !c.Connected(3, 3) || c.Connected(3, 0) {
		t.Fatal("Connected wrong")
	}
	if c.Connections() != 3 {
		t.Fatalf("Connections = %d, want 3", c.Connections())
	}
	got := c.Config()
	if !got.Equal(cfg) {
		t.Fatal("Config copy should equal applied configuration")
	}
	// Returned config is a copy; mutating it must not affect the fabric.
	got.Reset()
	if c.Connections() != 3 {
		t.Fatal("Config must return a copy, not an alias")
	}
}

func TestApplyRejectsNonPermutation(t *testing.T) {
	c := NewCrossbar(3, Digital, 10)
	bad := bitmat.NewSquare(3)
	bad.Set(0, 1)
	bad.Set(2, 1) // two inputs to one output
	if err := c.Apply(bad); err == nil {
		t.Fatal("expected error for conflicting configuration")
	}
	if c.Connections() != 0 {
		t.Fatal("failed Apply must leave register unchanged")
	}
}

func TestApplyRejectsWrongShape(t *testing.T) {
	c := NewCrossbar(3, Digital, 10)
	if err := c.Apply(bitmat.NewSquare(4)); err == nil {
		t.Fatal("expected error for wrong-shaped configuration")
	}
}

func TestConstructorPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewCrossbar(0, LVDS, 0) },
		func() { NewCrossbar(4, LVDS, -1) },
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

func TestGuardBand(t *testing.T) {
	// Paper example: 50 ns reconfig, 50 ns grant skew -> 50 ns guard band.
	if got := GuardBand(50, 50); got != 50 {
		t.Fatalf("GuardBand(50,50) = %v, want 50", got)
	}
	if got := GuardBand(10, 30); got != 30 {
		t.Fatalf("GuardBand(10,30) = %v, want 30", got)
	}
	if got := GuardBand(40, 5); got != 40 {
		t.Fatalf("GuardBand(40,5) = %v, want 40", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative inputs")
		}
	}()
	GuardBand(-1, 0)
}

func TestQuickApplyPermutationsAlwaysSucceed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(32)
		c := NewCrossbar(n, LVDS, 0)
		perm := rng.Perm(n)
		for i := range perm {
			if rng.Float64() < 0.25 {
				perm[i] = -1
			}
		}
		cfg := bitmat.FromPermutation(perm)
		if err := c.Apply(cfg); err != nil {
			return false
		}
		// Every connection in the permutation must be realized.
		for u, v := range perm {
			if v >= 0 && c.OutputFor(u) != v {
				return false
			}
			if v < 0 && c.OutputFor(u) != -1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckErrors(t *testing.T) {
	for _, tc := range []struct {
		kind Kind
		n    int
		want string // "" means valid
	}{
		{KindCrossbar, 3, ""},
		{KindCrossbar, 0, "invalid port count 0"},
		{KindOmega, 16, ""},
		{KindOmega, 12, "omega size 12 must be a power of two >= 2"},
		{KindOmega, 1, "omega size 1 must be a power of two >= 2"},
		{Kind(9), 16, "unknown fabric kind 9"},
	} {
		t.Run(fmt.Sprintf("%v/n=%d", tc.kind, tc.n), func(t *testing.T) {
			err := Check(tc.kind, tc.n)
			if (err == nil) != (tc.want == "") || (err != nil && !strings.Contains(err.Error(), tc.want)) {
				t.Errorf("Check(%v, %d) = %v, want %q", tc.kind, tc.n, err, tc.want)
			}
			b, nerr := NewBackend(tc.kind, tc.n)
			if (nerr == nil) != (err == nil) || (err != nil && nerr.Error() != err.Error()) {
				t.Errorf("NewBackend(%v, %d) = %v, Check = %v", tc.kind, tc.n, nerr, err)
			}
			if nerr == nil && (b.Kind() != tc.kind || b.Ports() != tc.n) {
				t.Errorf("NewBackend(%v, %d) built a %v backend with %d ports", tc.kind, tc.n, b.Kind(), b.Ports())
			}
		})
	}
	if n := testing.AllocsPerRun(10, func() { _ = Check(KindOmega, 1<<15) }); n != 0 {
		t.Errorf("Check allocated %v times, want 0", n)
	}
}

// TestBackendsFollowTheirFabric drives each backend with random partial
// permutations and working sets: CanRealize and Apply must follow the fabric
// model behind the register (every partial permutation on the crossbar, the
// Omega network's routing on the Omega), and Decompose must cover the working
// set with configurations the backend accepts.
func TestBackendsFollowTheirFabric(t *testing.T) {
	const n = 16
	o, _ := multistage.NewOmega(n)
	for _, tc := range []struct {
		kind          Kind
		rearrangeable bool
		realizes      func(*bitmat.Matrix) bool
	}{
		{KindCrossbar, true, func(*bitmat.Matrix) bool { return true }},
		{KindOmega, false, o.CanRealize},
	} {
		t.Run(tc.kind.String(), func(t *testing.T) {
			b, err := NewBackend(tc.kind, n)
			if err != nil {
				t.Fatal(err)
			}
			if b.Rearrangeable() != tc.rearrangeable {
				t.Fatalf("Rearrangeable() = %v, want %v", b.Rearrangeable(), tc.rearrangeable)
			}
			rng := rand.New(rand.NewSource(3))
			blocked := 0
			for trial := 0; trial < 200; trial++ {
				cfg := bitmat.NewSquare(n)
				for u, v := range rng.Perm(n) {
					if rng.Intn(2) == 0 {
						cfg.Set(u, v)
					}
				}
				want := tc.realizes(cfg)
				if !want {
					blocked++
				}
				if got := b.CanRealize(cfg); got != want {
					t.Fatalf("trial %d: CanRealize = %v, fabric says %v", trial, got, want)
				}
				if err := b.Apply(cfg); (err == nil) != want {
					t.Fatalf("trial %d: Apply = %v, fabric realizes it: %v", trial, err, want)
				}
			}
			if tc.rearrangeable != (blocked == 0) {
				t.Fatalf("%d of 200 random partial permutations blocked", blocked)
			}
			ws := topology.NewWorkingSet(n)
			for ws.Len() < 3*n {
				if u, v := rng.Intn(n), rng.Intn(n); u != v {
					ws.Add(topology.Conn{Src: u, Dst: v})
				}
			}
			configs, err := b.Decompose(ws)
			if err != nil {
				t.Fatal(err)
			}
			union := bitmat.NewSquare(n)
			for i, cfg := range configs {
				if !b.CanRealize(cfg) {
					t.Fatalf("decomposed config %d is not realizable", i)
				}
				union.Or(cfg)
			}
			if !union.Equal(ws.Matrix()) {
				t.Fatal("decomposition does not cover the working set exactly")
			}
			if tc.rearrangeable && len(configs) != len(topology.Decompose(ws)) {
				t.Fatalf("crossbar decomposition uses %d configs, edge coloring %d", len(configs), len(topology.Decompose(ws)))
			}
		})
	}
}
