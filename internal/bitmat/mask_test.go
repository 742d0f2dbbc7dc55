package bitmat

import "testing"

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
