package bitmat

import (
	"math/rand"
	"testing"
)

func TestSparseBasics(t *testing.T) {
	s := NewSparse(8, 8)
	if !s.IsZero() || s.Count() != 0 {
		t.Fatal("fresh sparse not zero")
	}
	s.Set(3, 5)
	s.Set(3, 1)
	s.Set(3, 5) // idempotent
	s.Set(0, 7)
	if s.Count() != 3 {
		t.Fatalf("count %d, want 3", s.Count())
	}
	if got := s.Row(3); len(got) != 2 || got[0] != 1 || got[1] != 5 {
		t.Fatalf("row 3 = %v, want [1 5]", got)
	}
	if !MaskTest(s.RowMask(), 3) || MaskTest(s.RowMask(), 2) {
		t.Fatal("row mask wrong")
	}
	s.Clear(3, 1)
	s.Clear(3, 1) // idempotent
	if got := s.Row(3); len(got) != 1 || got[0] != 5 {
		t.Fatalf("row 3 = %v, want [5]", got)
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if !s.IsZero() || MaskTest(s.RowMask(), 3) {
		t.Fatal("reset did not clear")
	}
	if err := s.CheckParity(); err != nil {
		t.Fatal(err)
	}
}

func TestSparseCopyOr(t *testing.T) {
	a, b := NewSparse(6, 6), NewSparse(6, 6)
	a.Set(1, 2)
	a.Set(4, 0)
	b.Set(1, 3)
	b.Set(4, 0)
	c := NewSparse(6, 6)
	c.CopyFrom(a)
	c.Or(b)
	want := New(6, 6)
	want.Set(1, 2)
	want.Set(1, 3)
	want.Set(4, 0)
	if !c.Matrix().Equal(want) {
		t.Fatalf("or result:\n%v\nwant:\n%v", c.Matrix(), want)
	}
	if c.Count() != 3 {
		t.Fatalf("count %d, want 3", c.Count())
	}
	if err := c.CheckParity(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendMaskOnesFrom(t *testing.T) {
	n := 130
	m := make([]uint64, (n+63)/64)
	for _, i := range []int{0, 63, 64, 100, 129} {
		MaskSet(m, i)
	}
	got := AppendMaskOnesFrom(nil, m, n, 64)
	want := []int{64, 100, 129, 0, 63}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	MaskClear(m, 100)
	if MaskTest(m, 100) {
		t.Fatal("MaskClear failed")
	}
}

// TestSparseMatchesDenseRandom mirrors a random op sequence onto a plain
// Matrix and checks word-for-word agreement plus list coherence.
func TestSparseMatchesDenseRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(70), 1+rng.Intn(70)
		s := NewSparse(rows, cols)
		d := New(rows, cols)
		for op := 0; op < 500; op++ {
			i, j := rng.Intn(rows), rng.Intn(cols)
			switch rng.Intn(5) {
			case 0, 1, 2:
				s.Set(i, j)
				d.Set(i, j)
			case 3:
				s.Clear(i, j)
				d.Clear(i, j)
			case 4:
				s.Reset()
				d.Reset()
			}
		}
		if !s.Matrix().Equal(d) {
			t.Fatalf("trial %d: dense forms diverged", trial)
		}
		if err := s.CheckParity(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if s.Count() != d.Count() {
			t.Fatalf("trial %d: count %d vs %d", trial, s.Count(), d.Count())
		}
	}
}

// FuzzSparseParity drives a Sparse and a plain Matrix through the same
// fuzzer-chosen op sequence and requires word-for-word agreement, list/mask
// coherence, rotated-iteration agreement between AppendMaskOnesFrom over
// the row mask and a dense row-occupancy recomputation.
func FuzzSparseParity(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6}, uint8(8), uint8(8))
	f.Add([]byte{0xff, 0x00, 0x80, 0x7f}, uint8(65), uint8(3))
	f.Add([]byte{}, uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, ops []byte, rows8, cols8 uint8) {
		rows := 1 + int(rows8)%96
		cols := 1 + int(cols8)%96
		s := NewSparse(rows, cols)
		d := New(rows, cols)
		for k := 0; k+2 < len(ops); k += 3 {
			i := int(ops[k]) % rows
			j := int(ops[k+1]) % cols
			switch ops[k+2] % 8 {
			case 0, 1, 2, 3:
				s.Set(i, j)
				d.Set(i, j)
			case 4, 5, 6:
				s.Clear(i, j)
				d.Clear(i, j)
			case 7:
				s.Reset()
				d.Reset()
			}
		}
		if !s.Matrix().Equal(d) {
			t.Fatal("dense forms diverged")
		}
		if err := s.CheckParity(); err != nil {
			t.Fatal(err)
		}
		// Rotated mask iteration must visit exactly the dense occupied rows.
		from := 0
		if len(ops) > 0 {
			from = int(ops[0]) % rows
		}
		got := AppendMaskOnesFrom(nil, s.RowMask(), rows, from)
		occ := d.RowOccupancy(nil)
		want := AppendMaskOnesFrom(nil, occ, rows, from)
		if len(got) != len(want) {
			t.Fatalf("mask iteration %v, dense occupancy %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mask iteration %v, dense occupancy %v", got, want)
			}
		}
		// Per-row lists must match the dense rotated column scan.
		for i := 0; i < rows; i++ {
			dense := d.AppendRowOnes(nil, i)
			row := s.Row(i)
			if len(dense) != len(row) {
				t.Fatalf("row %d: sparse %v, dense %v", i, row, dense)
			}
			for k := range dense {
				if int(row[k]) != dense[k] {
					t.Fatalf("row %d: sparse %v, dense %v", i, row, dense)
				}
			}
		}
	})
}
