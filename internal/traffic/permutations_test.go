package traffic

import (
	"testing"

	"pmsnet/internal/topology"
)

func TestTranspose(t *testing.T) {
	w := Transpose(16, 64, 5)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// (1,2) = proc 6 -> (2,1) = proc 9.
	found := false
	for _, op := range w.Programs[6].Ops {
		if op.Kind == OpSend && op.Dst == 9 {
			found = true
		}
	}
	if !found {
		t.Fatal("proc 6 should send to proc 9 under transpose")
	}
	// Diagonal processors are fixed points: silent.
	for _, p := range []int{0, 5, 10, 15} {
		if len(w.Programs[p].Ops) != 0 {
			t.Fatalf("diagonal proc %d should be silent", p)
		}
	}
	// The static phase is a single permutation: degree 1.
	if w.StaticPhases[0].Degree() != 1 {
		t.Fatalf("degree = %d, want 1", w.StaticPhases[0].Degree())
	}
	if len(topology.Decompose(w.StaticPhases[0])) != 1 {
		t.Fatal("a permutation decomposes into one crossbar config")
	}
}

func TestBitReverse(t *testing.T) {
	w := BitReverse(8, 32, 3)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	// 3-bit reversal: 1 (001) -> 4 (100); 3 (011) -> 6 (110).
	cases := map[int]int{1: 4, 3: 6, 2: 2, 5: 5}
	for src, dst := range cases {
		if src == dst {
			if len(w.Programs[src].Ops) != 0 {
				t.Fatalf("fixed point %d should be silent", src)
			}
			continue
		}
		if int(w.Programs[src].Ops[0].Dst) != dst {
			t.Fatalf("proc %d sends to %d, want %d", src, w.Programs[src].Ops[0].Dst, dst)
		}
	}
}

func TestShift(t *testing.T) {
	w := Shift(10, 16, 2, 3)
	if err := w.Validate(); err != nil {
		t.Fatal(err)
	}
	if w.Programs[9].Ops[0].Dst != 2 {
		t.Fatalf("proc 9 shifts to %d, want 2", w.Programs[9].Ops[0].Dst)
	}
	if w.MessageCount() != 20 {
		t.Fatalf("messages = %d, want 20", w.MessageCount())
	}
	// Negative shifts wrap too.
	wn := Shift(10, 16, 1, -3)
	if wn.Programs[0].Ops[0].Dst != 7 {
		t.Fatalf("proc 0 shifts to %d, want 7", wn.Programs[0].Ops[0].Dst)
	}
}

func TestPermutationPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { Transpose(10, 8, 1) },  // not square
		func() { BitReverse(12, 8, 1) }, // not power of two
		func() { Shift(8, 8, 1, 8) },    // identity shift
		func() { Shift(8, 8, 0, 1) },    // no messages
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
