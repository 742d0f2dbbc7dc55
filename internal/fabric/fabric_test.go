package fabric

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"pmsnet/internal/multistage"
	"pmsnet/internal/topology"
)

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
			if nerr == nil && b.Rearrangeable() != (tc.kind == KindCrossbar) {
				t.Errorf("NewBackend(%v, %d) built a backend with Rearrangeable() = %v", tc.kind, tc.n, b.Rearrangeable())
			}
		})
	}
	if n := testing.AllocsPerRun(10, func() { _ = Check(KindOmega, 1<<15) }); n != 0 {
		t.Errorf("Check allocated %v times, want 0", n)
	}
}

// TestBackendsFollowTheirFabric drives each backend with random partial
// permutations and working sets. A blocking backend's CanRealize must
// follow the Omega network's routing and refuse a map that is no partial
// permutation of the ports; a rearrangeable one realizes every partial
// permutation. Decompose must cover the working set with configurations
// the fabric carries.
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
			}
			if tc.rearrangeable != (blocked == 0) {
				t.Fatalf("%d of 200 random partial permutations blocked", blocked)
			}
			if !tc.rearrangeable {
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
				if !tc.realizes(cfg) {
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

// TestOmegaCanRealizeZeroAlloc checks a realizable and a blocked
// configuration on the Omega backend, as the scheduler's CanEstablish hook
// does on every probe: the check reuses the backend's switch-state scratch
// and allocates nothing.
func TestOmegaCanRealizeZeroAlloc(t *testing.T) {
	const n = 64
	b, err := NewBackend(KindOmega, n)
	if err != nil {
		t.Fatal(err)
	}
	shift, reverse := make([]int32, n), make([]int32, n)
	for u := range shift {
		shift[u] = int32((u + 5) % n)
		for bit := 0; bit < 6; bit++ {
			reverse[u] |= int32(u>>bit&1) << (5 - bit)
		}
	}
	if !b.CanRealize(shift) || b.CanRealize(reverse) {
		t.Fatal("omega must route the shift and block the bit reversal")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !b.CanRealize(shift) || b.CanRealize(reverse) {
			t.Fatal("CanRealize changed its answer")
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs per pair of CanRealize checks, want 0", allocs)
	}
}
