package experiments

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"
)

func TestFig4CSV(t *testing.T) {
	rows, err := Fig4PanelExec(Serial, Scatter, 16, []int{32, 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig4CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 { // header + two sizes
		t.Fatalf("records = %d, want 3", len(recs))
	}
	if recs[0][0] != "bytes" || len(recs[0]) != 5 {
		t.Fatalf("header = %v", recs[0])
	}
	if recs[1][0] != "32" || recs[2][0] != "64" {
		t.Fatalf("size column wrong: %v", recs)
	}
	// Empty input is fine.
	if err := Fig4CSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFig5CSV(t *testing.T) {
	rows, err := Fig5Exec(Serial, 16, []float64{0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Fig5CSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[1][0] != "0.50" {
		t.Fatalf("records = %v", recs)
	}
	if err := Fig5CSV(&buf, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTable3CSV(t *testing.T) {
	var buf bytes.Buffer
	if err := Table3CSV(&buf, Table3(10)); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "n,fpga_ns,asic_ns,software_ns\n") {
		t.Fatalf("header wrong:\n%s", out)
	}
	if !strings.Contains(out, "128,385,80,") {
		t.Fatalf("128-port row missing:\n%s", out)
	}
}
