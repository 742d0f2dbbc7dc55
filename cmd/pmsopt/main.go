// Command pmsopt plans preload schedules offline: it turns a demand matrix
// into the configuration groups a Preload/Hybrid TDM run would pin, prints
// the planned schedule, and can A/B the plan against the hand-written static
// preloads in a real simulation.
//
// Demand comes from one of three sources:
//
//	pmsopt -pattern skewed -n 16                demand of a registered generator
//	pmsopt -workload trace.pms                  demand of a PMSTRACE program
//	pmsopt -demand matrix.csv                   an explicit NxN slot matrix
//
// -pattern takes a workload-generator spec `name[:key=value,...]` from the
// same registry as cmd/pmsim; `pmsopt -pattern list` prints the catalog.
//
// With a workload source, planning is per static phase (falling back to the
// compiler's phase analysis via -analyze when the workload carries no
// annotations). -measure replaces the programmed byte counts with demand
// measured by a probed dynamic run — the profile-guided variant.
//
// -compare runs the workload through preload TDM twice, statically chunked
// and planned, and prints both results; -assert-better additionally exits
// non-zero unless the plan strictly improves makespan and efficiency (the
// `make plan-smoke` gate). -o writes the planned schedule as JSON.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pmsnet/internal/compiler"
	"pmsnet/internal/link"
	"pmsnet/internal/metrics"
	"pmsnet/internal/plan"
	"pmsnet/internal/probe"
	"pmsnet/internal/tdm"
	"pmsnet/internal/trace"
	"pmsnet/internal/traffic"
)

func main() {
	var (
		planName = flag.String("planner", "solstice", "preload planner: "+strings.Join(plan.Kinds.Names(), "|")+" ('list' prints the vocabulary)")
		pattern  = flag.String("pattern", "", "workload generator spec name[:key=value,...] ('list' prints the full catalog)")
		wlPath   = flag.String("workload", "", "plan a PMSTRACE command file")
		dmPath   = flag.String("demand", "", "plan an explicit demand matrix (CSV, one row per source, slots per connection)")
		outPath  = flag.String("o", "", "write the planned schedule as JSON to this file")
		n        = flag.Int("n", 16, "processor count (built-in patterns)")
		size     = flag.Int("size", 64, "message size in bytes (generators with a bytes parameter)")
		msgs     = flag.Int("msgs", 4, "messages per connection (generators with a msgs parameter)")
		rounds   = flag.Int("rounds", 12, "rounds (generators with a rounds parameter)")
		factor   = flag.Int("factor", 8, "hot-shift demand multiplier (skewed)")
		seed     = flag.Int64("seed", 1, "workload random seed")
		k        = flag.Int("k", 4, "TDM multiplexing degree")
		slots    = flag.Int("preload-slots", 0, "pinned slot registers per group (0 = k, pure preload)")
		payload  = flag.Int("payload", 64, "usable payload bytes per slot")
		analyze  = flag.Bool("analyze", false, "discover phases with the compiler analysis instead of workload annotations")
		measure  = flag.Bool("measure", false, "measure demand from a probed dynamic run instead of the programmed byte counts")
		compare  = flag.Bool("compare", false, "simulate static vs planned preloads and print both")
		assert   = flag.Bool("assert-better", false, "with -compare: exit non-zero unless the plan strictly beats static preloads")
	)
	flag.Parse()

	if *planName == "list" {
		for _, name := range plan.Kinds.Names() {
			fmt.Println(name)
		}
		return
	}
	if *pattern == "list" {
		for _, g := range traffic.Generators() {
			fmt.Printf("%-14s %-42s %s\n", g.Name, g.Schema(), g.Doc)
		}
		return
	}
	kind, err := plan.Kinds.Parse(*planName)
	if err != nil {
		fatal(err)
	}
	planner := plan.New(kind)
	if *slots == 0 {
		*slots = *k
	}
	if *slots < 0 || *slots > *k {
		fatal(fmt.Errorf("-preload-slots %d must be within [0, k=%d]", *slots, *k))
	}

	// Demand-matrix mode: no workload, no phases, no simulation.
	if *dmPath != "" {
		if *compare || *measure || *analyze {
			fatal(fmt.Errorf("-demand plans a bare matrix; -compare/-measure/-analyze need a workload"))
		}
		d, err := readDemandCSV(*dmPath)
		if err != nil {
			fatal(err)
		}
		sched, err := planner.Plan(d, *k, *slots, planOpts(true))
		if err != nil {
			fatal(err)
		}
		printSchedule(fmt.Sprintf("demand %s", *dmPath), sched)
		writeSchedules(*outPath, []*plan.Schedule{sched})
		return
	}

	wl, err := buildWorkload(*pattern, *wlPath, *n, *size, *msgs, *rounds, *factor, *seed)
	if err != nil {
		fatal(err)
	}
	phases := wl.StaticPhases
	var demands []*plan.Demand
	if *analyze || len(phases) == 0 {
		analyzed, an, err := compiler.Analyze(wl, compiler.Options{PayloadBytes: *payload})
		if err != nil {
			fatal(err)
		}
		wl, phases, demands = analyzed, an.Phases, an.Demands
	} else {
		whole := plan.FromWorkload(wl, *payload)
		for _, phase := range phases {
			demands = append(demands, whole.Restrict(phase))
		}
	}
	if *measure {
		measured, err := measureDemand(wl, *n, *k, *payload)
		if err != nil {
			fatal(err)
		}
		demands = demands[:0]
		for _, phase := range phases {
			demands = append(demands, measured.Restrict(phase))
		}
	}

	var schedules []*plan.Schedule
	for pi, d := range demands {
		sched, err := planner.Plan(d, *k, *slots, planOpts(*slots == *k))
		if err != nil {
			fatal(err)
		}
		printSchedule(fmt.Sprintf("%s phase %d/%d", wl.Name, pi+1, len(demands)), sched)
		schedules = append(schedules, sched)
	}
	writeSchedules(*outPath, schedules)

	if *compare {
		if err := runCompare(wl, planner, *n, *k, *slots, *assert); err != nil {
			fatal(err)
		}
	}
}

// planOpts charges group swaps at the paper control plane's delay in slot
// units (80 ns / 100 ns slots).
func planOpts(coverAll bool) plan.Options {
	return plan.Options{
		ReconfigSlots: float64(link.Paper().ControlDelay()) / 100.0,
		CoverAll:      coverAll,
	}
}

// measureDemand runs the workload through dynamic TDM with a message-creation
// probe and returns the observed per-connection demand in slots — the
// profile-guided alternative to trusting the programmed byte counts.
func measureDemand(wl *traffic.Workload, n, k, payload int) (*plan.Demand, error) {
	sink := &demandSink{d: plan.NewDemand(n), payload: int64(payload)}
	nw, err := tdm.New(tdm.Config{N: n, K: k, Probe: probe.New(sink)})
	if err != nil {
		return nil, err
	}
	if _, err := nw.Run(wl); err != nil {
		return nil, err
	}
	return sink.d, nil
}

// demandSink accumulates MsgCreated events into a slot-unit demand matrix.
type demandSink struct {
	d       *plan.Demand
	payload int64
}

func (s *demandSink) Handle(ev probe.Event) {
	if ev.Kind != probe.MsgCreated {
		return
	}
	slots := (ev.Aux + s.payload - 1) / s.payload
	if slots < 1 {
		slots = 1
	}
	s.d.Add(int(ev.Src), int(ev.Dst), slots)
}

// runCompare simulates the workload under static and planned preloads and
// prints both results; with assert it enforces a strict improvement.
func runCompare(wl *traffic.Workload, planner plan.Planner, n, k, slots int, assert bool) error {
	cfg := tdm.Config{N: n, K: k, Mode: tdm.Preload}
	if slots < k {
		cfg.Mode = tdm.Hybrid
		cfg.PreloadSlots = slots
	}
	static, err := runOnce(cfg, wl)
	if err != nil {
		return fmt.Errorf("static preload: %w", err)
	}
	cfg.Planner = planner
	planned, err := runOnce(cfg, wl)
	if err != nil {
		return fmt.Errorf("%s planner: %w", planner.Name(), err)
	}
	fmt.Printf("\n== static vs %s on %s ==\n", planner.Name(), wl.Name)
	fmt.Printf("%-10s makespan %-12v efficiency %.4f  preloads %d\n",
		"static", static.Makespan, static.Efficiency, static.Stats.Preloads)
	fmt.Printf("%-10s makespan %-12v efficiency %.4f  preloads %d  (%d configs, %d residual conns)\n",
		planner.Name(), planned.Makespan, planned.Efficiency, planned.Stats.Preloads,
		planned.Stats.PlanConfigs, planned.Stats.PlanResidualConns)
	if planned.Makespan < static.Makespan {
		fmt.Printf("plan wins:  makespan -%v (%.1f%%), efficiency +%.4f\n",
			static.Makespan-planned.Makespan,
			100*float64(static.Makespan-planned.Makespan)/float64(static.Makespan),
			planned.Efficiency-static.Efficiency)
	} else {
		fmt.Printf("plan does not improve makespan (+%v)\n", planned.Makespan-static.Makespan)
	}
	if assert && (planned.Makespan >= static.Makespan || planned.Efficiency <= static.Efficiency) {
		return fmt.Errorf("plan did not strictly beat the static preloads")
	}
	return nil
}

func runOnce(cfg tdm.Config, wl *traffic.Workload) (metrics.Result, error) {
	nw, err := tdm.New(cfg)
	if err != nil {
		return metrics.Result{}, err
	}
	return nw.Run(wl)
}

// printSchedule renders one phase's plan.
func printSchedule(title string, s *plan.Schedule) {
	fmt.Printf("== %s: %s plan (k=%d, %d pinned) ==\n", title, s.Planner, s.K, s.PreloadSlots)
	fmt.Printf("%d configurations in %d groups, drain estimate %.1f slots (%d reconfigurations)\n",
		s.NumConfigs(), len(s.Groups), s.DrainSlots, s.Reconfigs)
	for gi, g := range s.Groups {
		var parts []string
		for _, e := range g {
			parts = append(parts, fmt.Sprintf("%d conns x%d (demand %d)", len(configConns(e.Config)), e.Share, e.Demand))
		}
		fmt.Printf("  group %d: %s\n", gi, strings.Join(parts, ", "))
	}
	if rc := s.Residual.Conns(); rc > 0 {
		fmt.Printf("  residual: %d connections, %d slots ride the dynamic path\n", rc, s.Residual.Total())
	}
}

// scheduleJSON is the -o serialization: groups of configurations as
// connection lists with their register shares.
type scheduleJSON struct {
	Planner      string      `json:"planner"`
	K            int         `json:"k"`
	PreloadSlots int         `json:"preload_slots"`
	DrainSlots   float64     `json:"drain_slots"`
	Groups       [][]entryJS `json:"groups"`
	Residual     []connJS    `json:"residual,omitempty"`
}

type entryJS struct {
	Share  int      `json:"share"`
	Demand int64    `json:"demand"`
	Conns  []connJS `json:"conns"`
}

type connJS struct {
	Src int   `json:"src"`
	Dst int   `json:"dst"`
	W   int64 `json:"w,omitempty"`
}

// configConns lists a planned configuration's connections in source order.
func configConns(cfg []int32) []connJS {
	var conns []connJS
	for u, v := range cfg {
		if v >= 0 {
			conns = append(conns, connJS{Src: u, Dst: int(v)})
		}
	}
	return conns
}

func writeSchedules(path string, scheds []*plan.Schedule) {
	if path == "" {
		return
	}
	out := make([]scheduleJSON, len(scheds))
	for i, s := range scheds {
		js := scheduleJSON{Planner: s.Planner, K: s.K, PreloadSlots: s.PreloadSlots, DrainSlots: s.DrainSlots}
		for _, g := range s.Groups {
			var eg []entryJS
			for _, e := range g {
				eg = append(eg, entryJS{Share: e.Share, Demand: e.Demand, Conns: configConns(e.Config)})
			}
			js.Groups = append(js.Groups, eg)
		}
		for _, c := range s.Residual.WorkingSet().Conns() {
			js.Residual = append(js.Residual, connJS{Src: c.Src, Dst: c.Dst, W: s.Residual.At(c.Src, c.Dst)})
		}
		out[i] = js
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d planned phase(s) to %s\n", len(out), path)
}

// buildWorkload resolves the demand workload: a PMSTRACE file, or a
// generator spec from the shared registry. Spec parameters win; the classic
// flags (-size, -msgs, -rounds, -factor) fill parameters the spec leaves
// unset, when the user passed them and the family has them.
func buildWorkload(pattern, tracePath string, n, size, msgs, rounds, factor int, seed int64) (*traffic.Workload, error) {
	if tracePath != "" {
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	}
	if pattern == "" {
		return nil, fmt.Errorf("pick a demand source: -pattern, -workload or -demand")
	}
	spec, err := traffic.ParseSpec(pattern)
	if err != nil {
		return nil, err
	}
	overlay := map[string]string{}
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "size":
			overlay["bytes"] = strconv.Itoa(size)
		case "msgs":
			overlay["msgs"] = strconv.Itoa(msgs)
		case "rounds":
			overlay["rounds"] = strconv.Itoa(rounds)
		case "factor":
			overlay["factor"] = strconv.Itoa(factor)
		}
	})
	for key, value := range overlay {
		if err := spec.Default(key, value); err != nil {
			return nil, err
		}
	}
	return spec.Generate(n, seed)
}

// readDemandCSV parses an NxN comma-separated integer matrix. N is the
// first row's length; each row's positive entries go straight into the
// sparse demand, in (Src, Dst) order.
func readDemandCSV(path string) (*plan.Demand, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var d *plan.Demand
	u := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		cells := strings.Split(line, ",")
		if d == nil {
			d = plan.NewDemand(len(cells))
		}
		if u >= d.N() {
			return nil, fmt.Errorf("%s: more than %d rows", path, d.N())
		}
		if len(cells) != d.N() {
			return nil, fmt.Errorf("%s: row %d has %d columns, want %d", path, u+1, len(cells), d.N())
		}
		for v, cell := range cells {
			w, err := strconv.ParseInt(strings.TrimSpace(cell), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("%s: row %d: %w", path, u+1, err)
			}
			if w < 0 {
				return nil, fmt.Errorf("%s: negative demand at (%d,%d)", path, u, v)
			}
			if w > 0 {
				if u == v {
					return nil, fmt.Errorf("%s: self-loop demand at (%d,%d)", path, u, v)
				}
				d.Set(u, v, w)
			}
		}
		u++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if d == nil {
		return nil, fmt.Errorf("%s: empty demand matrix", path)
	}
	if u != d.N() {
		return nil, fmt.Errorf("%s: %d rows, want %d", path, u, d.N())
	}
	return d, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmsopt:", err)
	os.Exit(1)
}
