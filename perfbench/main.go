// Command perfbench is the pmsnet benchmark: four named workloads measured
// end to end with tracing off, plus a separate traced run that attributes
// host time to the simulator's layers from outside the simulation code.
//
// Usage (from the repository root; perfbench/run.py builds and runs it):
//
//	perfbench --workload mesh-n128 --seed 1 --seconds 10 --trace 0
//
// Workloads: mesh-n128, bursty-n1024, two-phase-n128, serve-n64, or all.
// With --trace 0 the final stdout line is a JSON object holding every
// end-to-end metric; with --trace 1 it holds every per-layer metric. Human
// readable tables go to stdout before it. See README.md for the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one workload run produced: its attempts, failures and
// metrics in print order.
type outcome struct {
	attempted, failed int
	names             []string
	metrics           map[string]metric
	notes             []string
}

func newOutcome() *outcome { return &outcome{metrics: map[string]metric{}} }

func (o *outcome) set(name string, value float64, unit string) {
	if _, dup := o.metrics[name]; !dup {
		o.names = append(o.names, name)
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	o.metrics[name] = metric{Value: value, Unit: unit}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// fail records one failed attempt with its reason.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 20 {
		o.note("FAIL: "+format, args...)
	}
}

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	jobSeed int64
	seconds time.Duration
	trace   bool
	spans   string
}

var workloadNames = []string{"mesh-n128", "bursty-n1024", "two-phase-n128", "serve-n64"}

func main() { os.Exit(run()) }

func run() int {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Int64("seed", 1, "workload seed base; batch workloads simulate seeds base..base+P-1")
	jobSeed := flag.Int64("job-seed", 0, "serve-n64 job-seed stream base (0 = derive from --seed)")
	seconds := flag.Float64("seconds", 10, "measurement window per run, in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, tracing off; 1 = traced per-layer run")
	spans := flag.String("spans", ".bench_build/perfbench", "directory the traced run writes its spans to")
	record := flag.String("record", "", "regenerate the expected-digest table into this file and exit")
	flag.Parse()

	if *record != "" {
		if err := recordDigests(*record); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	opts := options{
		seed:    *seed,
		jobSeed: *jobSeed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		spans:   *spans,
	}
	if opts.jobSeed == 0 {
		base := opts.seed
		if base < 0 {
			base = -base
		}
		opts.jobSeed = 1_000_003*base + 1
	}

	var names []string
	switch *workload {
	case "all":
		names = workloadNames
	case "":
		fmt.Fprintln(os.Stderr, "perfbench: --workload is required")
		return 2
	default:
		names = []string{*workload}
	}

	total := result{Metrics: map[string]metric{}}
	for _, name := range names {
		o, err := runWorkload(name, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		printOutcome(name, opts, o)
		total.Attempted += o.attempted
		total.Failed += o.failed
		for _, m := range o.names {
			key := m
			if len(names) > 1 {
				key = name + "." + m
			}
			total.Metrics[key] = o.metrics[m]
		}
	}
	total.Correct = total.Failed == 0 && total.Attempted > 0
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func runWorkload(name string, opts options) (*outcome, error) {
	if name == "serve-n64" {
		return runServe(opts)
	}
	for _, w := range batchWorkloads {
		if w.name == name {
			return runBatch(w, opts)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s, all)", name, strings.Join(workloadNames, ", "))
}

func printOutcome(name string, opts options, o *outcome) {
	mode := "end-to-end, tracing off"
	if opts.trace {
		mode = "traced, per-layer"
	}
	fmt.Printf("== %s (seed %d, %s)\n", name, opts.seed, mode)
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	ratio := 0.0
	if o.attempted > 0 {
		ratio = float64(o.failed) / float64(o.attempted)
	}
	fmt.Printf("  %-26s %14d\n", "attempted", o.attempted)
	fmt.Printf("  %-26s %14d\n", "failed", o.failed)
	fmt.Printf("  %-26s %14.4f\n", "failed_ratio", ratio)
	for _, n := range o.names {
		m := o.metrics[n]
		fmt.Printf("  %-26s %14.4f %s\n", n, m.Value, m.Unit)
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
