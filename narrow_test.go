package pmsnet

import (
	"fmt"
	"testing"

	"pmsnet/internal/fault"
)

// narrowPins holds the report digests of the narrow-workload runs that
// already ran before idle ports were handled; they must not move.
var narrowPins = map[string]string{
	"wormhole/random-mesh/no fault":                   "fb6000cc8a00d513",
	"wormhole/random-mesh/link fault on port 12":      "5897a9004e277528",
	"circuit/random-mesh/no fault":                    "2453bb28616b3e9b",
	"circuit/random-mesh/link fault on port 12":       "09bd64d7e24e7eb0",
	"tdm-dynamic/random-mesh/no fault":                "17c01cbaa12e2c10",
	"mesh-wormhole/random-mesh/no fault":              "8e942ca105c9db31",
	"mesh-wormhole/random-mesh/link fault on port 12": "d17f3cdd181b3bb6",
	"mesh-tdm/random-mesh/no fault":                   "e86a2fc62ddfc818",
	"mesh-tdm/random-mesh/link fault on port 12":      "679e0d806296738d",
	"wormhole/two-phase/no fault":                     "205cdbe5b8710d88",
	"wormhole/two-phase/link fault on port 12":        "1bb8e9236a115499",
	"circuit/two-phase/no fault":                      "c86073be4d08bbcd",
	"circuit/two-phase/link fault on port 12":         "6eb2225a042b7ed6",
	"tdm-dynamic/two-phase/no fault":                  "5cdac8aa2144a9ff",
	"mesh-wormhole/two-phase/no fault":                "49cb246346be160f",
	"mesh-wormhole/two-phase/link fault on port 12":   "dd908d0c58cf2488",
	"mesh-tdm/two-phase/no fault":                     "3b41443812b5af12",
	"mesh-tdm/two-phase/link fault on port 12":        "6a03db2ffc5f165b",
}

// TestWorkloadNarrowerThanSwitch runs 8-processor workloads on a 16-port
// switch under every network, with no fault, with a link fault on idle port
// 12 and with a permanent link fault on active port 2. The extra ports stay
// idle: no run fails, a fault on an idle port is counted and drops nothing,
// every fault run accounts for every message, and the runs that always
// worked keep their reports.
func TestWorkloadNarrowerThanSwitch(t *testing.T) {
	idleFault, err := ParseFaults("seed=3,link=12@200ns+300ns")
	if err != nil {
		t.Fatal(err)
	}
	permanent, err := ParseFaults("seed=3,link=2@200ns")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"random-mesh", "two-phase"} {
		raw, err := GenerateWorkload(spec, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		analyzed, _, err := AnalyzeWorkload(raw)
		if err != nil {
			t.Fatal(err)
		}
		for i := range Switchings.Names() {
			sw := Switching(i)
			wl := raw
			if sw == PreloadTDM || sw == HybridTDM {
				wl = analyzed
			}
			for _, fc := range []struct {
				name   string
				faults *fault.Plan
			}{{"no fault", nil}, {"link fault on port 12", idleFault}, {"permanent link fault on port 2", permanent}} {
				name := fmt.Sprintf("%s/%s/%s", sw, spec, fc.name)
				t.Run(name, func(t *testing.T) {
					rep, err := Run(Config{Switching: sw, N: 16, K: 4, PreloadSlots: 1, Faults: fc.faults}, wl)
					if err != nil {
						t.Fatal(err)
					}
					if f := rep.Faults; f == nil {
						if rep.Messages != wl.Messages() {
							t.Fatalf("delivered %d of %d messages", rep.Messages, wl.Messages())
						}
					} else if f.LinkFailures != 1 || f.Injected != f.Delivered+f.Dropped {
						t.Fatalf("%d link failures, %d injected = %d delivered + %d dropped", f.LinkFailures, f.Injected, f.Delivered, f.Dropped)
					} else if fc.faults == idleFault && (f.Dropped != 0 || rep.Messages != wl.Messages()) {
						t.Fatalf("idle-port fault dropped %d and delivered %d of %d messages", f.Dropped, rep.Messages, wl.Messages())
					}
					if want, ok := narrowPins[name]; ok && reportDigest(t, rep) != want {
						t.Fatalf("report digest %s, pinned %s", reportDigest(t, rep), want)
					}
				})
			}
		}
	}
}
