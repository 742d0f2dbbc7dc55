// Command benchjson converts `go test -bench` output into machine-readable
// JSON. It reads the benchmark output on stdin, echoes every line to stdout
// unchanged (so it can sit at the end of a pipe without hiding progress), and
// writes a JSON document mapping each benchmark to its iteration count and
// metrics — ns/op, B/op, allocs/op and any custom units reported with
// b.ReportMetric, such as the figure harnesses' per-network efficiencies.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -o BENCH_1.json
//
// A benchmark that appears several times (`go test -count N`) is recorded
// once, with the median of each metric over its runs, the interquartile
// range (IQR) in "iqr" and the run count in "samples".
//
// With -compare BASELINE.json it additionally diffs the fresh run against a
// previously captured JSON document, printing one line per shared benchmark
// and watched metric with its percent delta and an ok/improved/REGRESSION
// verdict, and exits non-zero when any benchmark regressed — the regression
// gate behind `make bench-compare`. ns/op regresses when its median grows by
// more than -threshold percent (default 20) or the baseline's IQR, whichever
// is larger; allocs/op, which is deterministic, by more than 2%; any other
// watched unit by more than -threshold.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the benchmark name with the trailing -GOMAXPROCS suffix
	// stripped, so keys stay stable across machines.
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Metrics maps unit → value: "ns/op", "B/op", "allocs/op" and any
	// custom ReportMetric units. Over several runs it is the median.
	Metrics map[string]float64 `json:"metrics"`
	// Samples counts the runs aggregated, and IQR maps each unit to the
	// interquartile range over them; both are absent for a single run.
	Samples int                `json:"samples,omitempty"`
	IQR     map[string]float64 `json:"iqr,omitempty"`
}

func main() {
	out := flag.String("o", "", "write JSON here (default stdout, after the echoed input)")
	compareWith := flag.String("compare", "", "baseline JSON to diff the fresh run against")
	threshold := flag.Float64("threshold", 20, "regression threshold in percent for -compare")
	metrics := flag.String("metrics", "ns/op,allocs/op",
		"comma-separated metric units the -compare gate watches (allocs/op alone suits short-benchtime smoke runs)")
	flag.Parse()
	comparedMetrics = strings.Split(*metrics, ",")

	runs, err := parse(os.Stdin, os.Stdout)
	if err != nil {
		fatal(err)
	}
	benches := aggregate(runs)
	if *out != "" || *compareWith == "" {
		doc, err := json.MarshalIndent(map[string]any{"benchmarks": benches}, "", "  ")
		if err != nil {
			fatal(err)
		}
		doc = append(doc, '\n')
		if *out == "" {
			os.Stdout.Write(doc)
		} else {
			if err := os.WriteFile(*out, doc, 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %d benchmarks to %s\n", len(benches), *out)
		}
	}
	if *compareWith != "" {
		baseline, err := loadBaseline(*compareWith)
		if err != nil {
			fatal(err)
		}
		regressions := compare(baseline, benches, *threshold, os.Stderr)
		if regressions > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %g%% vs %s\n",
				regressions, *threshold, *compareWith)
			os.Exit(1)
		}
	}
}

// loadBaseline reads a JSON document previously written by benchjson.
func loadBaseline(path string) ([]Benchmark, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Benchmarks []Benchmark `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc.Benchmarks, nil
}

// comparedMetrics are the units the regression gate watches (-metrics
// overrides). Custom ReportMetric units (efficiencies) are figures, not
// costs, so they are reported informally but never gate.
var comparedMetrics = []string{"ns/op", "allocs/op"}

// allocThreshold is the allocs/op regression threshold in percent. Three
// single captures of one tree differed from its -count 5 capture by at
// most 0.1% in every benchmark's allocs/op.
const allocThreshold = 2.0

// compare diffs the fresh run against the baseline: every shared benchmark
// gets one line per watched metric with its percent delta and a verdict —
// "ok" within the metric's limit, "improved" below it, "REGRESSION" above
// it. The limit is threshold, or for allocs/op allocThreshold; for ns/op it
// widens to the baseline's IQR when that is larger, so a noisy benchmark
// gates at its own spread.
// It returns the number of regressed (benchmark, metric) pairs. Benchmarks
// present on only one side are noted but never count as regressions —
// renames and new benchmarks must not break the gate.
func compare(baseline, fresh []Benchmark, threshold float64, w io.Writer) int {
	base := make(map[string]Benchmark, len(baseline))
	for _, b := range baseline {
		base[b.Name] = b
	}
	regressions := 0
	shared := 0
	for _, f := range fresh {
		b, ok := base[f.Name]
		if !ok {
			fmt.Fprintf(w, "  new: %s (not in baseline)\n", f.Name)
			continue
		}
		shared++
		delete(base, f.Name)
		for _, unit := range comparedMetrics {
			old, haveOld := b.Metrics[unit]
			now, haveNow := f.Metrics[unit]
			if !haveOld || !haveNow {
				continue
			}
			pct := deltaPercent(old, now)
			limit := threshold
			switch unit {
			case "allocs/op":
				limit = allocThreshold
			case "ns/op":
				if iqr := b.IQR[unit]; old > 0 {
					limit = max(limit, iqr/old*100)
				}
			}
			verdict := "ok"
			switch {
			case pct > limit:
				regressions++
				verdict = "REGRESSION"
			case pct < -limit:
				verdict = "improved"
			}
			fmt.Fprintf(w, "  %-10s %s %s: %s -> %s (%+.1f%%)\n",
				verdict, f.Name, unit, fmtNum(old), fmtNum(now), pct)
		}
	}
	for name := range base {
		fmt.Fprintf(w, "  gone: %s (baseline only)\n", name)
	}
	fmt.Fprintf(w, "compared %d shared benchmarks, %d regression(s)\n", shared, regressions)
	return regressions
}

// fmtNum renders a metric value without scientific notation: integral
// values as plain integers, fractional ones with two decimals.
func fmtNum(v float64) string {
	if v == math.Trunc(v) {
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'f', 2, 64)
}

// deltaPercent returns the relative growth from old to now in percent. A
// zero baseline only regresses when the fresh value is non-zero (reported as
// +Inf%); 0 -> 0 is unchanged.
func deltaPercent(old, now float64) float64 {
	if old == 0 {
		if now == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return (now - old) / old * 100
}

// parse scans `go test -bench` output, copying every line to echo and
// collecting the result lines. A result line is
//
//	BenchmarkName-8   1234   56.7 ns/op   0 B/op   0 allocs/op   0.95 some-eff
//
// i.e. name, iteration count, then (value, unit) pairs. Non-benchmark lines
// (table logs, PASS/ok, compile noise) are passed through untouched.
func parse(r io.Reader, echo io.Writer) ([]Benchmark, error) {
	var benches []Benchmark
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo != nil {
			fmt.Fprintln(echo, line)
		}
		if b, ok := parseLine(line); ok {
			benches = append(benches, b)
		}
	}
	return benches, sc.Err()
}

func parseLine(line string) (Benchmark, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Benchmark{}, false
	}
	fields := strings.Fields(line)
	// Shortest real result line: name, iterations, value, unit.
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: stripProcs(fields[0]), Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, true
}

// aggregate merges repeated runs of a benchmark into one entry, in order of
// first appearance: each metric's median over the runs, and with more than
// one run the sample count and each metric's IQR.
func aggregate(runs []Benchmark) []Benchmark {
	var out []Benchmark
	byName := map[string][]Benchmark{}
	for _, b := range runs {
		if byName[b.Name] == nil {
			out = append(out, Benchmark{Name: b.Name})
		}
		byName[b.Name] = append(byName[b.Name], b)
	}
	for i := range out {
		rs := byName[out[i].Name]
		values := map[string][]float64{}
		var iters []float64
		for _, r := range rs {
			iters = append(iters, float64(r.Iterations))
			for unit, v := range r.Metrics {
				values[unit] = append(values[unit], v)
			}
		}
		out[i].Iterations = int64(quantile(iters, 0.5))
		out[i].Metrics = map[string]float64{}
		for unit, vs := range values {
			out[i].Metrics[unit] = quantile(vs, 0.5)
		}
		if len(rs) > 1 {
			out[i].Samples = len(rs)
			out[i].IQR = map[string]float64{}
			for unit, vs := range values {
				out[i].IQR[unit] = quantile(vs, 0.75) - quantile(vs, 0.25)
			}
		}
	}
	return out
}

// quantile returns the q-quantile of vs by linear interpolation between
// the order statistics; it sorts vs.
func quantile(vs []float64, q float64) float64 {
	slices.Sort(vs)
	h := q * float64(len(vs)-1)
	lo := int(h)
	if lo+1 >= len(vs) {
		return vs[lo]
	}
	return vs[lo] + (h-float64(lo))*(vs[lo+1]-vs[lo])
}

// stripProcs removes the trailing -N GOMAXPROCS suffix the testing package
// appends to benchmark names.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
