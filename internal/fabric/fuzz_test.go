package fabric

import (
	"testing"

	"pmsnet/internal/multistage"
	"pmsnet/internal/topology"
)

// FuzzFabricApply offers both backends random connection lists, with
// repeated and out-of-range ports, two loads per input so the second meets
// a loaded register. The crossbar must accept exactly the partial
// permutations of its ports; the Omega exactly those the Omega network also
// routes. An accepted load must leave the list in the register, a refused
// one the register as it was. Each list whose inputs are distinct and in
// range is also offered to CanRealize as a port map, duplicate outputs and
// all: it must agree with Apply.
//
// Input layout: byte 0 picks N = 2..16 (a power of two, so the Omega
// exists), byte 1 where the data splits into the two lists, and each later
// byte pair is one connection with ports in [-1, N].
func FuzzFabricApply(f *testing.F) {
	f.Add([]byte{2, 4, 1, 2, 2, 3, 3, 4})                                // N=8: two valid lists
	f.Add([]byte{2, 4, 1, 1, 1, 2})                                      // duplicate input
	f.Add([]byte{1, 6, 1, 3, 2, 3})                                      // duplicate output
	f.Add([]byte{0, 0, 1, 3})                                            // output past N
	f.Add([]byte{2, 16, 1, 1, 2, 5, 3, 3, 4, 7, 5, 2, 6, 6, 7, 4, 8, 8}) // bit reversal: blocked on the omega
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 2 << (data[0] % 4)
		port := func(b byte) int { return int(b)%(n+2) - 1 }
		var lists [2][]topology.Conn
		split := int(data[1])
		for i := 2; i+1 < len(data); i += 2 {
			k := 0
			if i-2 >= split {
				k = 1
			}
			lists[k] = append(lists[k], topology.Conn{Src: port(data[i]), Dst: port(data[i+1])})
		}
		o, _ := multistage.NewOmega(n)
		for _, kind := range []Kind{KindCrossbar, KindOmega} {
			b, err := NewBackend(kind, n)
			if err != nil {
				t.Fatal(err)
			}
			var loaded []topology.Conn
			applied := 0
			for _, conns := range lists {
				want := isPartialPermutation(n, conns)
				if want && kind == KindOmega {
					want = o.CanRealize(connsMap(n, conns), o.NewState())
				}
				if mapsInputs(n, conns) {
					if got := b.CanRealize(connsMap(n, conns)); got != want {
						t.Fatalf("%v N=%d: CanRealize(%v) = %v, want %v", kind, n, connsMap(n, conns), got, want)
					}
				}
				err := b.Apply(conns)
				if (err == nil) != want {
					t.Fatalf("%v N=%d: Apply(%v) = %v, want accepted %v", kind, n, conns, err, want)
				}
				if err == nil {
					loaded = conns
					applied++
				}
				assertRegister(t, kind.String(), b, n, loaded, applied)
			}
		}
	})
}

// isPartialPermutation is the reference check: every port in [0, n), no
// input and no output twice.
func isPartialPermutation(n int, conns []topology.Conn) bool {
	ins, outs := map[int]bool{}, map[int]bool{}
	for _, c := range conns {
		if c.Src < 0 || c.Src >= n || c.Dst < 0 || c.Dst >= n || ins[c.Src] || outs[c.Dst] {
			return false
		}
		ins[c.Src], outs[c.Dst] = true, true
	}
	return true
}

// mapsInputs reports whether a port map can hold the list: inputs distinct
// and in [0, n), outputs not negative (a map reads -1 as a free input).
func mapsInputs(n int, conns []topology.Conn) bool {
	ins := map[int]bool{}
	for _, c := range conns {
		if c.Src < 0 || c.Src >= n || c.Dst < 0 || ins[c.Src] {
			return false
		}
		ins[c.Src] = true
	}
	return true
}

// TestApplySteadyStateZeroAlloc alternates two loads per backend — the
// slot-boundary pattern — and expects no allocation once the register's
// list has grown to size. Checking either list's port map with CanRealize
// allocates nothing either.
func TestApplySteadyStateZeroAlloc(t *testing.T) {
	const n = 64
	o, _ := multistage.NewOmega(n)
	identity := make([]topology.Conn, 0, n)
	shift := make([]topology.Conn, 0, n)
	for u := 0; u < n; u++ {
		identity = append(identity, topology.Conn{Src: u, Dst: u})
		shift = append(shift, topology.Conn{Src: u, Dst: (u + 5) % n})
	}
	sparse := []topology.Conn{{Src: 1, Dst: 9}, {Src: 4, Dst: 2}, {Src: 63, Dst: 0}}
	for _, tc := range []struct {
		kind Kind
		a, b []topology.Conn
	}{
		{KindCrossbar, sparse, shift},
		{KindOmega, identity, shift},
	} {
		mapA, mapB := connsMap(n, tc.a), connsMap(n, tc.b)
		if state := o.NewState(); tc.kind == KindOmega && !(o.CanRealize(mapA, state) && o.CanRealize(mapB, state)) {
			t.Fatal("omega lists must be realizable")
		}
		be, err := NewBackend(tc.kind, n)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if be.Apply(tc.a) != nil || be.Apply(tc.b) != nil {
				t.Fatal("Apply refused a valid list")
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocs per pair of loads, want 0", tc.kind, allocs)
		}
		allocs = testing.AllocsPerRun(100, func() {
			if !be.CanRealize(mapA) || !be.CanRealize(mapB) {
				t.Fatal("CanRealize refused a valid map")
			}
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocs per pair of CanRealize checks, want 0", tc.kind, allocs)
		}
	}
}
