package topology

import (
	"math/rand"
	"testing"
)

// rowsTable builds the table whose row src holds rows[src].
func rowsTable(n int, rows [][]int) *ConnTable {
	return NewConnTable(n, func(src int, add func(dst int)) {
		for _, v := range rows[src] {
			add(v)
		}
	})
}

// members lists the set's members in src's row through Next.
func members(s *IDSet, src int) []int32 {
	var out []int32
	lo, hi := s.Table().Row(src)
	for id := s.Next(lo, hi); id < hi; id = s.Next(id+1, hi) {
		out = append(out, id)
	}
	return out
}

func TestIDSetBasics(t *testing.T) {
	tab := rowsTable(8, [][]int{{1, 7}, nil, nil, {1, 5, 6}, nil, nil, nil, {0}})
	s := NewIDSet(tab)
	if !s.IsEmpty() || s.Table() != tab {
		t.Fatal("fresh set not empty")
	}
	id := func(u, v int) int32 { return tab.ID(u, v) }
	s.Add(3, id(3, 5))
	s.Add(3, id(3, 1))
	s.Add(3, id(3, 5)) // idempotent
	s.Add(0, id(0, 7))
	if got := members(s, 3); len(got) != 2 || got[0] != id(3, 1) || got[1] != id(3, 5) {
		t.Fatalf("row 3 = %v, want ids of 3->1 and 3->5", got)
	}
	if s.Rows()[0] != 1<<0|1<<3 {
		t.Fatalf("row mask %b, want rows 0 and 3", s.Rows()[0])
	}
	s.Remove(3, id(3, 1))
	s.Remove(3, id(3, 1)) // idempotent
	if got := members(s, 3); len(got) != 1 || got[0] != id(3, 5) || !s.Has(id(3, 5)) || s.Has(id(3, 1)) {
		t.Fatalf("row 3 = %v, want the id of 3->5", got)
	}
	s.Remove(3, id(3, 5))
	if s.Rows()[0] != 1 {
		t.Fatalf("row mask %b, want row 0 only once row 3 empties", s.Rows()[0])
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	if !s.IsEmpty() || s.Has(id(0, 7)) {
		t.Fatal("reset did not clear")
	}
	if err := s.Check(); err != nil {
		t.Fatal(err)
	}
	for _, f := range []func(){
		func() { s.Add(1, id(0, 7)) },    // an id outside the row
		func() { s.Remove(7, id(3, 6)) }, // likewise
		func() { s.Or(NewIDSet(rowsTable(8, make([][]int, 8)))) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestIDSetCopyOr(t *testing.T) {
	tab := NewCompleteConnTable(6)
	a, b, c := NewIDSet(tab), NewIDSet(tab), NewIDSet(tab)
	for _, uv := range [][2]int{{1, 2}, {4, 0}} {
		a.Add(uv[0], tab.ID(uv[0], uv[1]))
	}
	for _, uv := range [][2]int{{1, 3}, {4, 0}} {
		b.Add(uv[0], tab.ID(uv[0], uv[1]))
	}
	c.Add(5, tab.ID(5, 1)) // overwritten by CopyFrom
	c.CopyFrom(a)
	c.Or(b)
	for id := int32(0); id < int32(tab.Len()); id++ {
		cn := tab.Conn(id)
		want := cn == Conn{1, 2} || cn == Conn{1, 3} || cn == Conn{4, 0}
		if c.Has(id) != want {
			t.Fatalf("%v: member %v, want %v", cn, c.Has(id), want)
		}
	}
	if c.Rows()[0] != 1<<1|1<<4 {
		t.Fatalf("row mask %b, want rows 1 and 4", c.Rows()[0])
	}
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestIDSetMatchesMapRandom mirrors random operation sequences onto a map
// model over random tables with empty rows and checks membership, row scans
// and the row mask after each step.
func TestIDSetMatchesMapRandom(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*rng.Intn(200))
		rng.Read(ops)
		checkIDSetOps(t, uint8(rng.Intn(256)), uint8(rng.Intn(256)), ops)
	}
}

// FuzzIDSet drives an IDSet and a map model through fuzzer-chosen tables
// and Add, Remove, Reset, CopyFrom and Or tapes, comparing membership,
// every row's scan and the row mask.
func FuzzIDSet(f *testing.F) {
	f.Add(uint8(8), uint8(3), []byte{1, 2, 0, 1, 3, 0, 1, 2, 1})
	f.Add(uint8(130), uint8(255), []byte("rows across words, an empty row and a reset"))
	f.Add(uint8(70), uint8(17), []byte{0, 0, 4, 9, 9, 5, 69, 1, 0, 3, 3, 1})
	f.Fuzz(checkIDSetOps)
}

// checkIDSetOps builds a table of n8%150+1 ports whose row density follows
// dense8 and applies the op tape, three bytes an op, to an IDSet and to a
// map model, checking them against each other after every op.
func checkIDSetOps(t *testing.T, n8, dense8 uint8, ops []byte) {
	n := 1 + int(n8)%150
	rng := rand.New(rand.NewSource(int64(n8)<<8 | int64(dense8)))
	rows := make([][]int, n)
	for u := range rows {
		if rng.Intn(4) == 0 {
			continue // an empty row
		}
		for k := rng.Intn(1 + int(dense8)%n); k > 0; k-- {
			if v := rng.Intn(n); v != u {
				rows[u] = append(rows[u], v)
			}
		}
	}
	tab := rowsTable(n, rows)
	if tab.Len() == 0 {
		return
	}
	s, other := NewIDSet(tab), NewIDSet(tab)
	model, otherModel := map[int32]bool{}, map[int32]bool{}
	for i := 0; i+2 < len(ops); i += 3 {
		id := int32((int(ops[i])<<8 | int(ops[i+1])) % tab.Len())
		src := tab.Conn(id).Src
		switch ops[i+2] % 8 {
		case 0, 1, 2:
			s.Add(src, id)
			model[id] = true
		case 3, 4:
			s.Remove(src, id)
			delete(model, id)
		case 5:
			other.Add(src, id)
			otherModel[id] = true
		case 6:
			if ops[i]&1 == 0 {
				s.Or(other)
				for k := range otherModel {
					model[k] = true
				}
			} else {
				s.CopyFrom(other)
				model = map[int32]bool{}
				for k := range otherModel {
					model[k] = true
				}
			}
		default:
			s.Reset()
			model = map[int32]bool{}
		}
		if err := s.Check(); err != nil {
			t.Fatalf("op %d: %v", i/3, err)
		}
		if s.IsEmpty() != (len(model) == 0) {
			t.Fatalf("op %d: IsEmpty %v with %d members", i/3, s.IsEmpty(), len(model))
		}
		for u := 0; u < n; u++ {
			var want []int32
			lo, hi := tab.Row(u)
			for id := lo; id < hi; id++ {
				if s.Has(id) != model[id] {
					t.Fatalf("op %d: Has(%d) = %v, model %v", i/3, id, s.Has(id), model[id])
				}
				if model[id] {
					want = append(want, id)
				}
			}
			got := members(s, u)
			if len(got) != len(want) {
				t.Fatalf("op %d: row %d scans %v, model %v", i/3, u, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("op %d: row %d scans %v, model %v", i/3, u, got, want)
				}
			}
			if marked := s.Rows()[u>>6]&(1<<(uint(u)&63)) != 0; marked != (len(want) > 0) {
				t.Fatalf("op %d: row %d marked %v with %d members", i/3, u, marked, len(want))
			}
		}
	}
}
