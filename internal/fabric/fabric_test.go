package fabric

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

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

// connsMap is the port map over n ports of a connection list whose inputs
// are distinct and in range: entry u is u's output, or -1. Outputs are
// copied as they are, so a list that reuses one yields a map that is not a
// partial permutation.
func connsMap(n int, conns []topology.Conn) []int32 {
	cfg := topology.NewPortMap(n)
	for _, c := range conns {
		cfg[c.Src] = int32(c.Dst)
	}
	return cfg
}

func TestApplyAndQuery(t *testing.T) {
	c := NewCrossbar(4)
	if c.Ports() != 4 {
		t.Fatal("constructor fields wrong")
	}
	perm := []int{2, -1, 0, 3}
	if err := c.Apply(permConns(perm)); err != nil {
		t.Fatal(err)
	}
	if c.Applied() != 1 {
		t.Fatalf("Applied = %d, want 1", c.Applied())
	}
	if !slices.Equal(c.out, []int32{2, -1, 0, 3}) || len(c.conns) != 3 {
		t.Fatalf("register holds %v (%d connections), want the applied configuration", c.out, len(c.conns))
	}
	// A second load replaces the first completely.
	if err := c.Apply(permConns([]int{-1, 2, -1, -1})); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(c.out, []int32{-1, 2, -1, -1}) || len(c.conns) != 1 || c.Applied() != 2 {
		t.Fatalf("second load left %v", c.out)
	}
}

// TestApplyAcrossStampWrap loads a list, winds the validation generation
// to its last value and loads the same list again: when the generation
// wraps, the stamps the first load left must be forgotten, not read as
// duplicates.
func TestApplyAcrossStampWrap(t *testing.T) {
	c := NewCrossbar(4)
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
	c := NewCrossbar(3)
	bad := []topology.Conn{{Src: 0, Dst: 1}, {Src: 2, Dst: 1}} // two inputs to one output
	if err := c.Apply(bad); err == nil {
		t.Fatal("expected error for conflicting configuration")
	}
	if len(c.conns) != 0 || c.Applied() != 0 {
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
	if o.CanRealize(connsMap(n, permConns(reverse)), o.NewState()) {
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
	var reg *Crossbar
	switch b := b.(type) {
	case crossbarBackend:
		reg = b.Crossbar
	case omegaBackend:
		reg = b.Crossbar
	}
	if want := connsMap(n, conns); !slices.Equal(reg.out, want) {
		t.Fatalf("%s: register maps %v, want %v", what, reg.out, want)
	}
	if !slices.Equal(reg.conns, conns) || b.Applied() != applied {
		t.Fatalf("%s: register holds %d connections after %d loads, want %d after %d",
			what, len(reg.conns), b.Applied(), len(conns), applied)
	}
}

func TestConstructorPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewCrossbar(0) },
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

func TestQuickApplyPermutationsAlwaysSucceed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(32)
		c := NewCrossbar(n)
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
			if v >= 0 && c.out[u] != int32(v) {
				return false
			}
			if v < 0 && c.out[u] != -1 {
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
// permutations (as port maps for CanRealize, as lists for Apply) and working
// sets: CanRealize and Apply must follow the fabric
// model behind the register (every partial permutation on the crossbar, the
// Omega network's routing on the Omega), CanRealize must refuse a map that
// is no partial permutation of the ports, and Decompose must cover the
// working set with configurations the backend accepts.
func TestBackendsFollowTheirFabric(t *testing.T) {
	const n = 16
	o, _ := multistage.NewOmega(n)
	state := o.NewState()
	for _, tc := range []struct {
		kind          Kind
		rearrangeable bool
		realizes      func([]int32) bool
	}{
		{KindCrossbar, true, func([]int32) bool { return true }},
		{KindOmega, false, func(cfg []int32) bool { return o.CanRealize(cfg, state) }},
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
				cfg := connsMap(n, conns)
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
			for name, cfg := range map[string][]int32{
				"duplicate output": connsMap(n, []topology.Conn{{Src: 1, Dst: 4}, {Src: 2, Dst: 4}}),
				"output past N":    connsMap(n, []topology.Conn{{Src: 1, Dst: n}}),
				"output below -1":  connsMap(n, []topology.Conn{{Src: 1, Dst: -2}}),
				"short map":        topology.NewPortMap(n - 1),
				"long map":         topology.NewPortMap(n + 1),
			} {
				if b.CanRealize(cfg) {
					t.Fatalf("%s: CanRealize(%v) accepted", name, cfg)
				}
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
			union := topology.NewWorkingSet(n)
			total := 0
			for i, cfg := range configs {
				if !b.CanRealize(cfg) {
					t.Fatalf("decomposed config %d is not realizable", i)
				}
				for u, v := range cfg {
					if v >= 0 {
						union.Add(topology.Conn{Src: u, Dst: int(v)})
						total++
					}
				}
			}
			if total != ws.Len() || !slices.Equal(union.Conns(), ws.Conns()) {
				t.Fatal("decomposition does not cover the working set exactly")
			}
			if tc.rearrangeable && len(configs) != len(topology.Decompose(ws)) {
				t.Fatalf("crossbar decomposition uses %d configs, edge coloring %d", len(configs), len(topology.Decompose(ws)))
			}
		})
	}
}
