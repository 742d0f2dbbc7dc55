// Command tracecheck validates a Chrome trace-event JSON file produced by
// pmsim -trace: the file must parse as a JSON array of event objects, every
// event needs the required trace-format fields, and the trace must actually
// cover the simulation: at least one event of every category -want names
// (by default scheduler, connection and message events). It is the CI
// trace-smoke gate.
//
// Usage:
//
//	tracecheck [-want sched,conn,msg] run.trace.json
//
// A pure preload run establishes no dynamic connections, so its check names
// the categories it does emit, for example -want sched,msg,control.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	want := flag.String("want", "sched,conn,msg", "comma-separated event categories the trace must contain")
	flag.Parse()
	if flag.NArg() != 1 {
		fatal(fmt.Errorf("usage: tracecheck [-want cats] FILE"))
	}
	file := flag.Arg(0)
	data, err := os.ReadFile(file)
	if err != nil {
		fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		fatal(fmt.Errorf("%s: not a JSON array of events: %w", file, err))
	}
	cats := map[string]int{}
	for i, ev := range events {
		ph, ok := ev["ph"].(string)
		if !ok || ph == "" {
			fatal(fmt.Errorf("event %d: missing ph: %v", i, ev))
		}
		if _, ok := ev["name"].(string); !ok {
			fatal(fmt.Errorf("event %d: missing name: %v", i, ev))
		}
		if _, ok := ev["pid"]; !ok {
			fatal(fmt.Errorf("event %d: missing pid: %v", i, ev))
		}
		if _, ok := ev["ts"]; !ok && ph != "M" {
			fatal(fmt.Errorf("event %d: missing ts: %v", i, ev))
		}
		if c, ok := ev["cat"].(string); ok {
			cats[c]++
		}
	}
	for _, cat := range strings.Split(*want, ",") {
		if cats[cat] == 0 {
			fatal(fmt.Errorf("%s: no %q events (cats: %v)", file, cat, cats))
		}
	}
	fmt.Printf("%s: %d events ok (%v)\n", file, len(events), cats)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracecheck:", err)
	os.Exit(1)
}
