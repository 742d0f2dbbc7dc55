package fabric

import (
	"fmt"
	"math"
	"math/bits"
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

// permConns is the connection list of a permutation with -1 for an idle
// input, in ascending source order.
func permConns(perm []int) []topology.Conn {
	var conns []topology.Conn
	for u, v := range perm {
		if v >= 0 {
			conns = append(conns, topology.Conn{Src: u, Dst: v})
		}
	}
	return conns
}

// connsMatrix is the n x n configuration matrix of a connection list whose
// ports are in range.
func connsMatrix(n int, conns []topology.Conn) *bitmat.Matrix {
	m := bitmat.NewSquare(n)
	for _, c := range conns {
		m.Set(c.Src, c.Dst)
	}
	return m
}

func TestApplyAndQuery(t *testing.T) {
	c := NewCrossbar(4, LVDS, 0)
	if c.Ports() != 4 || c.Technology() != LVDS || c.ReconfigTime() != 0 {
		t.Fatal("constructor fields wrong")
	}
	perm := []int{2, -1, 0, 3}
	if err := c.Apply(permConns(perm)); err != nil {
		t.Fatal(err)
	}
	if c.Applied() != 1 {
		t.Fatalf("Applied = %d, want 1", c.Applied())
	}
	if c.OutputFor(0) != 2 || c.OutputFor(1) != -1 {
		t.Fatal("OutputFor wrong")
	}
	if !c.Connected(3, 3) || c.Connected(3, 0) || c.Connected(3, 7) {
		t.Fatal("Connected wrong")
	}
	if c.Connections() != 3 {
		t.Fatalf("Connections = %d, want 3", c.Connections())
	}
	got := c.Config()
	if !got.Equal(bitmat.FromPermutation(perm)) {
		t.Fatal("Config should equal the applied configuration")
	}
	// Returned config is a copy; mutating it must not affect the fabric.
	got.Reset()
	if c.Connections() != 3 {
		t.Fatal("Config must return a copy, not an alias")
	}
	// A second load replaces the first completely.
	if err := c.Apply(permConns([]int{-1, 2, -1, -1})); err != nil {
		t.Fatal(err)
	}
	if c.OutputFor(0) != -1 || c.OutputFor(1) != 2 || c.OutputFor(3) != -1 || c.Connections() != 1 || c.Applied() != 2 {
		t.Fatalf("second load left %v", c.Config())
	}
}

// TestApplyAcrossStampWrap loads a list, winds the validation generation
// to its last value and loads the same list again: when the generation
// wraps, the stamps the first load left must be forgotten, not read as
// duplicates.
func TestApplyAcrossStampWrap(t *testing.T) {
	c := NewCrossbar(4, LVDS, 0)
	conns := permConns([]int{1, 2, 3, 0})
	if err := c.Apply(conns); err != nil {
		t.Fatal(err)
	}
	c.gen = math.MaxUint32
	for i := 0; i < 3; i++ {
		if err := c.Apply(conns); err != nil {
			t.Fatalf("load %d after the wrap: %v", i, err)
		}
	}
	if err := c.Apply([]topology.Conn{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}}); err == nil {
		t.Fatal("duplicate input accepted after the wrap")
	}
}

func TestApplyRejectsNonPermutation(t *testing.T) {
	c := NewCrossbar(3, Digital, 10)
	bad := []topology.Conn{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}} // two inputs to one output
	if err := c.Apply(bad); err == nil {
		t.Fatal("expected error for conflicting configuration")
	}
	if c.Connections() != 0 || c.Applied() != 0 {
		t.Fatal("failed Apply must leave register unchanged")
	}
}

// TestRejectedApplyLeavesRegister loads a valid configuration on each
// backend, then offers lists the backend must refuse: a refused load may
// change nothing the register reports.
func TestRejectedApplyLeavesRegister(t *testing.T) {
	const n = 8
	o, _ := multistage.NewOmega(n)
	// The bit-reversal permutation is a partial permutation the Omega
	// network cannot route in one pass.
	reverse := make([]int, n)
	for u := range reverse {
		reverse[u] = int(bits.Reverse8(uint8(u)) >> 5)
	}
	if o.CanRealize(bitmat.FromPermutation(reverse)) {
		t.Fatal("bit reversal should be blocked on the omega network")
	}
	loaded := []topology.Conn{{Src: 0, Dst: 0}, {Src: 3, Dst: 3}, {Src: 5, Dst: 5}}
	bad := map[string][]topology.Conn{
		"duplicate input":  {{Src: 1, Dst: 1}, {Src: 1, Dst: 2}},
		"duplicate output": {{Src: 1, Dst: 4}, {Src: 2, Dst: 4}},
		"input past N":     {{Src: 1, Dst: 1}, {Src: n, Dst: 2}},
		"negative output":  {{Src: 2, Dst: -1}},
	}
	for _, kind := range []Kind{KindCrossbar, KindOmega} {
		t.Run(kind.String(), func(t *testing.T) {
			b, err := NewBackend(kind, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.Apply(loaded); err != nil {
				t.Fatal(err)
			}
			cases := bad
			if kind == KindOmega {
				cases = map[string][]topology.Conn{"omega-blocked": permConns(reverse)}
				for name, conns := range bad {
					cases[name] = conns
				}
			}
			for name, conns := range cases {
				if err := b.Apply(conns); err == nil {
					t.Fatalf("%s: Apply(%v) accepted", name, conns)
				}
				assertRegister(t, name, b, n, loaded, 1)
			}
			if err := b.Apply(nil); err != nil {
				t.Fatal(err)
			}
			assertRegister(t, "empty load", b, n, nil, 2)
		})
	}
}

// assertRegister fails unless the backend's register holds exactly conns
// after applied successful loads.
func assertRegister(t *testing.T, what string, b Backend, n int, conns []topology.Conn, applied int) {
	t.Helper()
	reg := b.(interface {
		OutputFor(u int) int
		Connections() int
		Config() *bitmat.Matrix
	})
	want := connsMatrix(n, conns)
	for u := 0; u < n; u++ {
		if got := reg.OutputFor(u); got != want.FirstInRow(u) {
			t.Fatalf("%s: OutputFor(%d) = %d, want %d", what, u, got, want.FirstInRow(u))
		}
	}
	if reg.Connections() != len(conns) || b.Applied() != applied || !reg.Config().Equal(want) {
		t.Fatalf("%s: register holds %d connections after %d loads, want %d after %d",
			what, reg.Connections(), b.Applied(), len(conns), applied)
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
		if err := c.Apply(permConns(perm)); err != nil {
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
// permutations (as matrices for CanRealize, as lists for Apply) and working
// sets: CanRealize and Apply must follow the fabric
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
				var conns []topology.Conn
				for u, v := range rng.Perm(n) {
					if rng.Intn(2) == 0 {
						conns = append(conns, topology.Conn{Src: u, Dst: v})
					}
				}
				cfg := connsMatrix(n, conns)
				want := tc.realizes(cfg)
				if !want {
					blocked++
				}
				if got := b.CanRealize(cfg); got != want {
					t.Fatalf("trial %d: CanRealize = %v, fabric says %v", trial, got, want)
				}
				if err := b.Apply(conns); (err == nil) != want {
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
