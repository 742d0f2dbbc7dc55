package bitmat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewIsZero(t *testing.T) {
	m := New(5, 7)
	if !m.IsZero() {
		t.Fatal("new matrix should be zero")
	}
	if m.Rows() != 5 || m.Cols() != 7 {
		t.Fatalf("shape = %dx%d, want 5x7", m.Rows(), m.Cols())
	}
	if m.Count() != 0 {
		t.Fatalf("Count = %d, want 0", m.Count())
	}
}

func TestSetGetClear(t *testing.T) {
	m := New(3, 130) // spans 3 words per row
	coords := [][2]int{{0, 0}, {0, 63}, {0, 64}, {1, 127}, {2, 128}, {2, 129}}
	for _, c := range coords {
		m.Set(c[0], c[1])
	}
	for _, c := range coords {
		if !m.Get(c[0], c[1]) {
			t.Errorf("Get(%d,%d) = false after Set", c[0], c[1])
		}
	}
	if m.Count() != len(coords) {
		t.Fatalf("Count = %d, want %d", m.Count(), len(coords))
	}
	if m.Get(1, 126) {
		t.Error("Get(1,126) = true, never set")
	}
	for _, c := range coords {
		m.Clear(c[0], c[1])
	}
	if !m.IsZero() {
		t.Fatal("matrix should be zero after clearing all set bits")
	}
}

func TestToggle(t *testing.T) {
	m := New(2, 2)
	if got := m.Toggle(1, 1); !got {
		t.Fatal("Toggle of clear bit should return true")
	}
	if !m.Get(1, 1) {
		t.Fatal("bit should be set after toggle")
	}
	if got := m.Toggle(1, 1); got {
		t.Fatal("Toggle of set bit should return false")
	}
	if m.Get(1, 1) {
		t.Fatal("bit should be clear after second toggle")
	}
}

func TestSetAllRespectsTail(t *testing.T) {
	m := New(2, 70)
	m.SetAll()
	if got, want := m.Count(), 140; got != want {
		t.Fatalf("Count after SetAll = %d, want %d", got, want)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 70; j++ {
			if !m.Get(i, j) {
				t.Fatalf("Get(%d,%d) = false after SetAll", i, j)
			}
		}
	}
}

func TestIdentity(t *testing.T) {
	m := Identity(6)
	if m.Count() != 6 {
		t.Fatalf("identity count = %d, want 6", m.Count())
	}
	if !m.IsPartialPermutation() {
		t.Fatal("identity must be a partial permutation")
	}
	for i := 0; i < 6; i++ {
		if m.FirstInRow(i) != i {
			t.Fatalf("FirstInRow(%d) = %d, want %d", i, m.FirstInRow(i), i)
		}
	}
}

func TestFromPermutation(t *testing.T) {
	m := FromPermutation([]int32{2, -1, 0, 1})
	if !m.IsPartialPermutation() {
		t.Fatal("expected a partial permutation")
	}
	if m.Count() != 3 {
		t.Fatalf("count = %d, want 3", m.Count())
	}
	if m.FirstInRow(1) != -1 {
		t.Fatalf("row 1 should be empty, FirstInRow = %d", m.FirstInRow(1))
	}
	if !m.Get(0, 2) || !m.Get(2, 0) || !m.Get(3, 1) {
		t.Fatalf("unexpected contents:\n%v", m)
	}
}

func TestFromPermutationDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate output")
		}
	}()
	FromPermutation([]int32{1, 1})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]bool{
		{true, false, false},
		{false, false, true},
	})
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if !m.Get(0, 0) || !m.Get(1, 2) || m.Get(0, 1) {
		t.Fatalf("unexpected contents:\n%v", m)
	}
}

func TestOrAndNot(t *testing.T) {
	a := FromRows([][]bool{{true, false}, {false, true}})
	b := FromRows([][]bool{{true, true}, {false, false}})
	u := a.Clone()
	u.Or(b)
	if u.Count() != 3 || !u.Get(0, 1) {
		t.Fatalf("Or wrong:\n%v", u)
	}
	u.AndNot(a)
	if u.Count() != 1 || !u.Get(0, 1) {
		t.Fatalf("AndNot wrong:\n%v", u)
	}
	w := a.Clone()
	w.And(b)
	if w.Count() != 1 || !w.Get(0, 0) {
		t.Fatalf("And wrong:\n%v", w)
	}
}

func TestRowColAnyAndCounts(t *testing.T) {
	m := New(4, 4)
	m.Set(1, 2)
	m.Set(3, 2)
	if !m.RowAny(1) || m.RowAny(0) {
		t.Fatal("RowAny wrong")
	}
	if !m.ColAny(2) || m.ColAny(3) {
		t.Fatal("ColAny wrong")
	}
	if m.ColCount(2) != 2 || m.RowCount(1) != 1 || m.RowCount(0) != 0 {
		t.Fatal("counts wrong")
	}
	if m.IsPartialPermutation() {
		t.Fatal("two bits in one column is not a partial permutation")
	}
}

func TestRowOnesAndIteration(t *testing.T) {
	m := New(2, 200)
	want := []int{0, 64, 65, 128, 199}
	for _, j := range want {
		m.Set(1, j)
	}
	got := m.RowOnes(1)
	if len(got) != len(want) {
		t.Fatalf("RowOnes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RowOnes = %v, want %v", got, want)
		}
	}
	var visited [][2]int
	m.Ones(func(i, j int) bool {
		visited = append(visited, [2]int{i, j})
		return true
	})
	if len(visited) != len(want) {
		t.Fatalf("Ones visited %d bits, want %d", len(visited), len(want))
	}
	// Early stop.
	n := 0
	m.Ones(func(i, j int) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("Ones early stop visited %d, want 2", n)
	}
}

func TestCloneAndCopyIndependence(t *testing.T) {
	a := Identity(4)
	b := a.Clone()
	b.Clear(0, 0)
	if !a.Get(0, 0) {
		t.Fatal("Clone must not alias the original")
	}
	c := New(4, 4)
	c.CopyFrom(a)
	if !c.Equal(a) {
		t.Fatal("CopyFrom should make matrices equal")
	}
}

func TestEqualShapeMismatch(t *testing.T) {
	if New(2, 3).Equal(New(3, 2)) {
		t.Fatal("different shapes must not be equal")
	}
}

func TestContainedIn(t *testing.T) {
	sub := FromRows([][]bool{{true, false}, {false, false}})
	sup := FromRows([][]bool{{true, true}, {false, false}})
	if !sub.ContainedIn(sup) {
		t.Fatal("sub should be contained in sup")
	}
	if sup.ContainedIn(sub) {
		t.Fatal("sup should not be contained in sub")
	}
}

func TestString(t *testing.T) {
	m := FromRows([][]bool{{true, false}, {false, true}})
	if got, want := m.String(), "1.\n.1"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	m := New(2, 2)
	cases := []func(){
		func() { m.Get(2, 0) },
		func() { m.Get(0, -1) },
		func() { m.Set(-1, 0) },
		func() { m.RowAny(5) },
		func() { m.ColAny(-2) },
		func() { m.RowOnes(2) },
		func() { m.FirstInRow(-1) },
	}
	for i, fn := range cases {
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

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(2, 2), New(2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	a.Or(b)
}

// randomMatrix builds a matrix with each bit set with probability p.
func randomMatrix(rng *rand.Rand, rows, cols int, p float64) *Matrix {
	m := New(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < p {
				m.Set(i, j)
			}
		}
	}
	return m
}

func TestPropertyCountMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 50; iter++ {
		rows, cols := 1+rng.Intn(10), 1+rng.Intn(150)
		m := randomMatrix(rng, rows, cols, 0.3)
		naive := 0
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if m.Get(i, j) {
					naive++
				}
			}
		}
		if m.Count() != naive {
			t.Fatalf("Count = %d, naive = %d", m.Count(), naive)
		}
	}
}

func TestPropertyRowColOnesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 50; iter++ {
		n := 1 + rng.Intn(100)
		m := randomMatrix(rng, n, n, 0.1)
		total := 0
		for i := 0; i < n; i++ {
			ones := m.RowOnes(i)
			total += len(ones)
			if len(ones) != m.RowCount(i) {
				t.Fatalf("RowOnes len %d != RowCount %d", len(ones), m.RowCount(i))
			}
			if m.RowAny(i) != (len(ones) > 0) {
				t.Fatal("RowAny inconsistent with RowOnes")
			}
			if len(ones) > 0 && m.FirstInRow(i) != ones[0] {
				t.Fatal("FirstInRow inconsistent with RowOnes")
			}
			if len(ones) == 0 && m.FirstInRow(i) != -1 {
				t.Fatal("FirstInRow of empty row should be -1")
			}
		}
		if total != m.Count() {
			t.Fatalf("sum of row counts %d != Count %d", total, m.Count())
		}
		colTotal := 0
		for j := 0; j < n; j++ {
			colTotal += m.ColCount(j)
			if m.ColAny(j) != (m.ColCount(j) > 0) {
				t.Fatal("ColAny inconsistent with ColCount")
			}
		}
		if colTotal != m.Count() {
			t.Fatalf("sum of col counts %d != Count %d", colTotal, m.Count())
		}
	}
}

func TestQuickOrIsUnion(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		a := randomMatrix(ra, 8, 8, 0.4)
		b := randomMatrix(rb, 8, 8, 0.4)
		u := a.Clone()
		u.Or(b)
		for i := 0; i < 8; i++ {
			for j := 0; j < 8; j++ {
				if u.Get(i, j) != (a.Get(i, j) || b.Get(i, j)) {
					return false
				}
			}
		}
		return a.ContainedIn(u) && b.ContainedIn(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAndNotDisjoint(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		ra := rand.New(rand.NewSource(seedA))
		rb := rand.New(rand.NewSource(seedB))
		a := randomMatrix(ra, 8, 8, 0.4)
		b := randomMatrix(rb, 8, 8, 0.4)
		d := a.Clone()
		d.AndNot(b)
		ok := true
		d.Ones(func(i, j int) bool {
			if b.Get(i, j) || !a.Get(i, j) {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickPartialPermutationFromPerm(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		perm := rng.Perm(n)
		// Blank out a random subset of rows.
		for i := range perm {
			if rng.Float64() < 0.3 {
				perm[i] = -1
			}
		}
		// Re-deduplicate after blanking is unnecessary: blanking only removes.
		m := FromPermutation(perm32(perm))
		return m.IsPartialPermutation()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCount128(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(rng, 128, 128, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Count() < 0 {
			b.Fatal("impossible")
		}
	}
}

func BenchmarkOr128(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	m := randomMatrix(rng, 128, 128, 0.05)
	o := randomMatrix(rng, 128, 128, 0.05)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Or(o)
	}
}

// --- word-level iteration and fingerprint APIs ---

func TestAppendRowOnesFromRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		cols := 1 + rng.Intn(200)
		m := randomMatrix(rng, 3, cols, 0.2)
		i := rng.Intn(3)
		from := rng.Intn(cols)

		// Naive reference: scan columns (from+j)%cols for j=0..cols-1.
		var want []int
		for j := 0; j < cols; j++ {
			v := (from + j) % cols
			if m.Get(i, v) {
				want = append(want, v)
			}
		}
		got := m.AppendRowOnesFrom(nil, i, from)
		if len(got) != len(want) {
			t.Fatalf("cols=%d from=%d: got %v, want %v", cols, from, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("cols=%d from=%d: got %v, want %v", cols, from, got, want)
			}
		}
		// from=0 must agree with the plain ascending scan.
		asc := m.AppendRowOnes(nil, i)
		zero := m.AppendRowOnesFrom(nil, i, 0)
		if len(asc) != len(zero) {
			t.Fatalf("from=0 disagrees with AppendRowOnes: %v vs %v", zero, asc)
		}
		for k := range asc {
			if asc[k] != zero[k] {
				t.Fatalf("from=0 disagrees with AppendRowOnes: %v vs %v", zero, asc)
			}
		}
	}
}

func TestAppendRowOnesReusesBuffer(t *testing.T) {
	m := New(2, 70)
	m.Set(0, 3)
	m.Set(0, 69)
	buf := make([]int, 0, 8)
	got := m.AppendRowOnes(buf, 0)
	if &got[0] != &buf[:1][0] {
		t.Fatal("AppendRowOnes did not reuse the provided buffer")
	}
	if len(got) != 2 || got[0] != 3 || got[1] != 69 {
		t.Fatalf("AppendRowOnes = %v, want [3 69]", got)
	}
}

func TestColumnUnionAndRowOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		rows := 1 + rng.Intn(80)
		cols := 1 + rng.Intn(200)
		m := randomMatrix(rng, rows, cols, 0.1)

		colOcc := m.ColumnUnion(nil)
		for j := 0; j < cols; j++ {
			got := colOcc[j/64]&(1<<(uint(j)%64)) != 0
			if got != m.ColAny(j) {
				t.Fatalf("ColumnUnion bit %d = %v, ColAny = %v", j, got, m.ColAny(j))
			}
		}
		rowOcc := m.RowOccupancy(nil)
		for i := 0; i < rows; i++ {
			got := rowOcc[i/64]&(1<<(uint(i)%64)) != 0
			if got != m.RowAny(i) {
				t.Fatalf("RowOccupancy bit %d = %v, RowAny = %v", i, got, m.RowAny(i))
			}
		}
	}
}

func TestOrAndNotFused(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		rows, cols := 1+rng.Intn(20), 1+rng.Intn(150)
		m := randomMatrix(rng, rows, cols, 0.3)
		a := randomMatrix(rng, rows, cols, 0.3)
		b := randomMatrix(rng, rows, cols, 0.3)

		want := m.Clone()
		diff := a.Clone()
		diff.AndNot(b)
		want.Or(diff)

		m.OrAndNot(a, b)
		if !m.Equal(want) {
			t.Fatalf("OrAndNot disagrees with Or(AndNot) composition")
		}
	}
}

func TestOnesWordLevelMatchesGet(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randomMatrix(rng, 9, 131, 0.2)
	var got [][2]int
	m.Ones(func(i, j int) bool {
		got = append(got, [2]int{i, j})
		return true
	})
	var want [][2]int
	for i := 0; i < 9; i++ {
		for j := 0; j < 131; j++ {
			if m.Get(i, j) {
				want = append(want, [2]int{i, j})
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Ones visited %d bits, want %d", len(got), len(want))
	}
	for k := range want {
		if got[k] != want[k] {
			t.Fatalf("Ones order mismatch at %d: %v vs %v", k, got[k], want[k])
		}
	}
}

// TestPartialPermutationEitherSideOfStackBuffer checks the column-reuse
// test both where the running OR fits the stack buffer (1024 columns) and
// where it spills to the heap (1088), with the reuse in the last word, and
// that the stack side does not allocate.
func TestPartialPermutationEitherSideOfStackBuffer(t *testing.T) {
	for _, n := range []int{1024, 1088} {
		m := FromPermutation(perm32(rand.New(rand.NewSource(int64(n))).Perm(n)))
		if !m.IsPartialPermutation() {
			t.Fatalf("n=%d: a permutation is a partial permutation", n)
		}
		row := -1
		for i := 0; i < n && row < 0; i++ {
			if m.FirstInRow(i) != n-1 {
				row = i
			}
		}
		m.Clear(row, m.FirstInRow(row))
		m.Set(row, n-1)
		if m.IsPartialPermutation() {
			t.Fatalf("n=%d: column %d used twice, still a partial permutation", n, n-1)
		}
	}
	m := Identity(1024)
	if allocs := testing.AllocsPerRun(10, func() { m.IsPartialPermutation() }); allocs != 0 {
		t.Errorf("IsPartialPermutation at 1024 columns allocates %.0f times, want 0", allocs)
	}
}

// perm32 converts a permutation to the port-map form FromPermutation takes.
func perm32(perm []int) []int32 {
	out := make([]int32, len(perm))
	for i, v := range perm {
		out[i] = int32(v)
	}
	return out
}
