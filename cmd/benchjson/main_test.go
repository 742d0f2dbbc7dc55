package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
BenchmarkEngineScheduleFire-8   	41821126	        28.31 ns/op	       0 B/op	       0 allocs/op
BenchmarkFig5Hybrid-8   	       1	  12345678 ns/op	         0.950 k=1-eff	         0.870 k=2-eff
Benchmark output that is not a result line
PASS
ok  	pmsnet	1.234s
`
	var echoed strings.Builder
	benches, err := parse(strings.NewReader(in), &echoed)
	if err != nil {
		t.Fatal(err)
	}
	if echoed.String() != in {
		t.Error("input was not echoed verbatim")
	}
	if len(benches) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(benches))
	}
	eng := benches[0]
	if eng.Name != "BenchmarkEngineScheduleFire" {
		t.Errorf("name = %q (GOMAXPROCS suffix should be stripped)", eng.Name)
	}
	if eng.Iterations != 41821126 {
		t.Errorf("iterations = %d", eng.Iterations)
	}
	if eng.Metrics["ns/op"] != 28.31 || eng.Metrics["allocs/op"] != 0 {
		t.Errorf("metrics = %v", eng.Metrics)
	}
	fig5 := benches[1]
	if fig5.Metrics["k=1-eff"] != 0.95 || fig5.Metrics["k=2-eff"] != 0.87 {
		t.Errorf("custom ReportMetric units not parsed: %v", fig5.Metrics)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	baseline := []Benchmark{
		{Name: "BenchmarkFast", Metrics: map[string]float64{"ns/op": 100, "allocs/op": 10}},
		{Name: "BenchmarkSteady", Metrics: map[string]float64{"ns/op": 200, "allocs/op": 4}},
		{Name: "BenchmarkRemoved", Metrics: map[string]float64{"ns/op": 50}},
	}
	fresh := []Benchmark{
		// 50% slower and 2x the allocations: two regressed metrics.
		{Name: "BenchmarkFast", Metrics: map[string]float64{"ns/op": 150, "allocs/op": 20}},
		// Within the 20% threshold either way.
		{Name: "BenchmarkSteady", Metrics: map[string]float64{"ns/op": 230, "allocs/op": 4}},
		// Not in the baseline: must not count as a regression.
		{Name: "BenchmarkNew", Metrics: map[string]float64{"ns/op": 1e9}},
	}
	var report strings.Builder
	if got := compare(baseline, fresh, 20, &report); got != 2 {
		t.Fatalf("compare returned %d regressions, want 2\nreport:\n%s", got, report.String())
	}
	out := report.String()
	for _, want := range []string{
		"REGRESSION BenchmarkFast ns/op",
		"REGRESSION BenchmarkFast allocs/op",
		"new: BenchmarkNew",
		"gone: BenchmarkRemoved",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	// Within-threshold drift still gets its delta line, tagged ok.
	if !strings.Contains(out, "ok         BenchmarkSteady ns/op: 200 -> 230 (+15.0%)") {
		t.Errorf("within-threshold delta not reported with an ok verdict:\n%s", out)
	}
}

func TestCompareImprovementsDoNotGate(t *testing.T) {
	baseline := []Benchmark{
		{Name: "BenchmarkHot", Metrics: map[string]float64{"ns/op": 1000, "allocs/op": 100}},
	}
	fresh := []Benchmark{
		{Name: "BenchmarkHot", Metrics: map[string]float64{"ns/op": 400, "allocs/op": 0}},
	}
	var report strings.Builder
	if got := compare(baseline, fresh, 20, &report); got != 0 {
		t.Fatalf("improvement counted as regression (%d)\n%s", got, report.String())
	}
	if !strings.Contains(report.String(), "improved") {
		t.Errorf("improvement not reported:\n%s", report.String())
	}
}

func TestDeltaPercentZeroBaseline(t *testing.T) {
	if d := deltaPercent(0, 0); d != 0 {
		t.Errorf("0 -> 0 = %v, want 0", d)
	}
	if d := deltaPercent(0, 5); !math.IsInf(d, 1) {
		t.Errorf("0 -> 5 = %v, want +Inf", d)
	}
	// A zero-alloc benchmark that starts allocating must gate at any
	// threshold.
	base := []Benchmark{{Name: "BenchmarkZeroAlloc", Metrics: map[string]float64{"allocs/op": 0}}}
	fresh := []Benchmark{{Name: "BenchmarkZeroAlloc", Metrics: map[string]float64{"allocs/op": 1}}}
	var report strings.Builder
	if got := compare(base, fresh, 20, &report); got != 1 {
		t.Fatalf("0 -> 1 allocs/op not flagged\n%s", report.String())
	}
}

func TestLoadBaselineRoundTrip(t *testing.T) {
	path := t.TempDir() + "/bench.json"
	doc := `{"benchmarks":[{"name":"BenchmarkX","iterations":7,"metrics":{"ns/op":42}}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	benches, err := loadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(benches) != 1 || benches[0].Name != "BenchmarkX" || benches[0].Metrics["ns/op"] != 42 {
		t.Fatalf("loadBaseline = %+v", benches)
	}
	if _, err := loadBaseline(t.TempDir() + "/missing.json"); err == nil {
		t.Error("missing baseline file did not error")
	}
}

func TestParseLineRejectsMalformed(t *testing.T) {
	for _, line := range []string{
		"BenchmarkOddFieldCount-8 100 5.0 ns/op trailing",
		"BenchmarkNoIterations-8 fast 5.0 ns/op",
		"BenchmarkTooShort-8 100",
		"not a benchmark at all",
	} {
		if _, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted malformed input", line)
		}
	}
}

func TestAggregateCountRuns(t *testing.T) {
	in := `BenchmarkX-2   	 100	        10 ns/op	      5 allocs/op
BenchmarkY-2   	   7	        42 ns/op
BenchmarkX-2   	 100	        12 ns/op	      5 allocs/op
BenchmarkX-2   	 120	        11 ns/op	      5 allocs/op
BenchmarkX-2   	 100	        30 ns/op	      5 allocs/op
BenchmarkX-2   	  90	        13 ns/op	      5 allocs/op
`
	runs, err := parse(strings.NewReader(in), nil)
	if err != nil {
		t.Fatal(err)
	}
	benches := aggregate(runs)
	if len(benches) != 2 || benches[0].Name != "BenchmarkX" || benches[1].Name != "BenchmarkY" {
		t.Fatalf("aggregate = %+v, want X then Y", benches)
	}
	x := benches[0]
	// ns/op sorted: 10 11 12 13 30 — median 12, quartiles 11 and 13.
	if x.Samples != 5 || x.Iterations != 100 || x.Metrics["ns/op"] != 12 || x.IQR["ns/op"] != 2 {
		t.Errorf("X = %+v, want 5 samples, 100 iterations, median 12 ns/op, IQR 2", x)
	}
	if x.Metrics["allocs/op"] != 5 || x.IQR["allocs/op"] != 0 {
		t.Errorf("X allocs/op median %v IQR %v, want 5 and 0", x.Metrics["allocs/op"], x.IQR["allocs/op"])
	}
	if y := benches[1]; y.Samples != 0 || y.IQR != nil || y.Metrics["ns/op"] != 42 {
		t.Errorf("single run Y = %+v, want its value and no samples or IQR", y)
	}
	if got := quantile([]float64{4, 1, 3, 2}, 0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
}

func TestCompareGatesNsAtBaselineIQR(t *testing.T) {
	for _, tc := range []struct {
		iqr, now float64
		want     int
	}{
		{30, 125, 0}, // within the 30% spread of a noisy baseline
		{30, 135, 1}, // beyond it
		{5, 125, 1},  // a quiet baseline gates at the 20% threshold
		{0, 115, 0},
	} {
		base := []Benchmark{{Name: "BenchmarkN", Metrics: map[string]float64{"ns/op": 100},
			IQR: map[string]float64{"ns/op": tc.iqr}}}
		fresh := []Benchmark{{Name: "BenchmarkN", Metrics: map[string]float64{"ns/op": tc.now}}}
		var report strings.Builder
		if got := compare(base, fresh, 20, &report); got != tc.want {
			t.Errorf("IQR %v, 100 -> %v ns/op: %d regressions, want %d\n%s", tc.iqr, tc.now, got, tc.want, report.String())
		}
	}
}

func TestCompareGatesAllocsTightly(t *testing.T) {
	for _, tc := range []struct {
		now  float64
		want int
	}{{101, 0}, {102, 0}, {103, 1}, {110, 1}} {
		base := []Benchmark{{Name: "BenchmarkA", Metrics: map[string]float64{"allocs/op": 100},
			IQR: map[string]float64{"allocs/op": 40}}}
		fresh := []Benchmark{{Name: "BenchmarkA", Metrics: map[string]float64{"allocs/op": tc.now}}}
		var report strings.Builder
		if got := compare(base, fresh, 20, &report); got != tc.want {
			t.Errorf("100 -> %v allocs/op: %d regressions, want %d\n%s", tc.now, got, tc.want, report.String())
		}
	}
}
