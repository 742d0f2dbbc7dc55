// Package trace serializes workloads as text command files.
//
// The paper's simulator drives each processor from "a command file that
// defines the type and sequence of communications that occur" (§5). This
// package defines that file format for the reproduction: a single text
// document holding one command section per processor plus the statically
// known communication phases a compiler would emit.
//
// Format (line oriented, '#' starts a comment):
//
//	PMSTRACE v1
//	NAME two-phase/128B
//	SPEC two-phase:bytes=128   # generator spec, when registry-built (optional)
//	N 128
//	PHASE                 # static phase 0 (optional, repeatable)
//	CONN 0 1
//	CONN 1 2
//	PROC 0                # program for processor 0
//	SEND 1 128            # enqueue 128 bytes to processor 1
//	SENDWAIT 2 64         # blocking send: wait for delivery
//	DELAY 500             # 500 ns of compute
//	FLUSH                 # flush dynamic connections
//	PHASEHINT 1           # entering static phase 1
//	PROC 1
//	...
//
// Sections may appear in any order except the header; every processor not
// given a PROC section has an empty program.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

const header = "PMSTRACE v1"

// Write serializes a workload. The workload must validate.
func Write(w io.Writer, wl *traffic.Workload) error {
	if err := wl.Validate(); err != nil {
		return fmt.Errorf("trace: refusing to write invalid workload: %w", err)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, header)
	if wl.Name != "" {
		fmt.Fprintf(bw, "NAME %s\n", wl.Name)
	}
	if wl.Spec != "" {
		fmt.Fprintf(bw, "SPEC %s\n", wl.Spec)
	}
	fmt.Fprintf(bw, "N %d\n", wl.N)
	for _, ph := range wl.StaticPhases {
		fmt.Fprintln(bw, "PHASE")
		for _, c := range ph.Conns() {
			fmt.Fprintf(bw, "CONN %d %d\n", c.Src, c.Dst)
		}
	}
	for p, prog := range wl.Programs {
		if len(prog.Ops) == 0 {
			continue
		}
		fmt.Fprintf(bw, "PROC %d\n", p)
		for _, op := range prog.Ops {
			switch op.Kind {
			case traffic.OpSend:
				fmt.Fprintf(bw, "SEND %d %d\n", op.Dst, op.Bytes())
			case traffic.OpSendWait:
				fmt.Fprintf(bw, "SENDWAIT %d %d\n", op.Dst, op.Bytes())
			case traffic.OpDelay:
				fmt.Fprintf(bw, "DELAY %d\n", int64(op.Delay()))
			case traffic.OpFlush:
				fmt.Fprintln(bw, "FLUSH")
			case traffic.OpPhase:
				fmt.Fprintf(bw, "PHASEHINT %d\n", op.Phase())
			default:
				return fmt.Errorf("trace: unknown op kind %d", int(op.Kind))
			}
		}
	}
	return bw.Flush()
}

// Read parses a command file into a workload and validates it.
func Read(r io.Reader) (*traffic.Workload, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0

	next := func() (string, bool) {
		for sc.Scan() {
			lineNo++
			line := strings.TrimSpace(sc.Text())
			if i := strings.IndexByte(line, '#'); i >= 0 {
				line = strings.TrimSpace(line[:i])
			}
			if line == "" {
				continue
			}
			return line, true
		}
		return "", false
	}

	errf := func(format string, args ...any) error {
		return fmt.Errorf("trace: line %d: %s", lineNo, fmt.Sprintf(format, args...))
	}

	line, ok := next()
	if !ok || line != header {
		return nil, errf("missing %q header", header)
	}

	wl := &traffic.Workload{N: -1}
	curProc := -1
	var curPhase *topology.WorkingSet

	ensureN := func() error {
		if wl.N <= 0 {
			return errf("N must be declared before this directive")
		}
		return nil
	}

	for {
		line, ok := next()
		if !ok {
			break
		}
		fields := strings.Fields(line)
		dir := strings.ToUpper(fields[0])
		args := fields[1:]

		atoi := func(s string) (int, error) {
			v, err := strconv.Atoi(s)
			if err != nil {
				return 0, errf("bad integer %q", s)
			}
			return v, nil
		}

		switch dir {
		case "NAME":
			if len(args) != 1 {
				return nil, errf("NAME takes one token")
			}
			wl.Name = args[0]
		case "SPEC":
			if len(args) != 1 {
				return nil, errf("SPEC takes one token")
			}
			wl.Spec = args[0]
		case "N":
			if len(args) != 1 {
				return nil, errf("N takes one integer")
			}
			v, err := atoi(args[0])
			if err != nil {
				return nil, err
			}
			if v <= 0 {
				return nil, errf("N must be positive, got %d", v)
			}
			wl.N = v
			wl.Programs = make([]traffic.Program, v)
		case "PHASE":
			if err := ensureN(); err != nil {
				return nil, err
			}
			curPhase = topology.NewWorkingSet(wl.N)
			wl.StaticPhases = append(wl.StaticPhases, curPhase)
			curProc = -1
		case "CONN":
			if curPhase == nil {
				return nil, errf("CONN outside a PHASE section")
			}
			if len(args) != 2 {
				return nil, errf("CONN takes two integers")
			}
			s, err := atoi(args[0])
			if err != nil {
				return nil, err
			}
			d, err := atoi(args[1])
			if err != nil {
				return nil, err
			}
			if s < 0 || s >= wl.N || d < 0 || d >= wl.N || s == d {
				return nil, errf("bad connection %d->%d", s, d)
			}
			curPhase.Add(topology.Conn{Src: s, Dst: d})
		case "PROC":
			if err := ensureN(); err != nil {
				return nil, err
			}
			if len(args) != 1 {
				return nil, errf("PROC takes one integer")
			}
			p, err := atoi(args[0])
			if err != nil {
				return nil, err
			}
			if p < 0 || p >= wl.N {
				return nil, errf("processor %d outside [0,%d)", p, wl.N)
			}
			curProc = p
			curPhase = nil
		case "SEND", "SENDWAIT", "DELAY", "FLUSH", "PHASEHINT":
			if curProc < 0 {
				return nil, errf("%s outside a PROC section", dir)
			}
			var op traffic.Op
			switch dir {
			case "SEND", "SENDWAIT":
				if len(args) != 2 {
					return nil, errf("%s takes destination and size", dir)
				}
				d, err := atoi(args[0])
				if err != nil {
					return nil, err
				}
				b, err := atoi(args[1])
				if err != nil {
					return nil, err
				}
				// Checked before the op narrows it: a destination past
				// the int32 range would wrap into a valid port.
				if d < 0 || d >= wl.N {
					return nil, errf("destination %d outside [0,%d)", d, wl.N)
				}
				if dir == "SEND" {
					op = traffic.Send(d, b)
				} else {
					op = traffic.SendWait(d, b)
				}
			case "DELAY":
				if len(args) != 1 {
					return nil, errf("DELAY takes nanoseconds")
				}
				ns, err := atoi(args[0])
				if err != nil {
					return nil, err
				}
				op = traffic.Delay(sim.Time(ns))
			case "FLUSH":
				if len(args) != 0 {
					return nil, errf("FLUSH takes no arguments")
				}
				op = traffic.Flush()
			case "PHASEHINT":
				if len(args) != 1 {
					return nil, errf("PHASEHINT takes a phase index")
				}
				i, err := atoi(args[0])
				if err != nil {
					return nil, err
				}
				op = traffic.Phase(i)
			}
			wl.Programs[curProc].Ops = append(wl.Programs[curProc].Ops, op)
		default:
			return nil, errf("unknown directive %q", dir)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if wl.N <= 0 {
		return nil, fmt.Errorf("trace: file declares no N")
	}
	if err := wl.Validate(); err != nil {
		return nil, fmt.Errorf("trace: parsed workload invalid: %w", err)
	}
	return wl, nil
}
