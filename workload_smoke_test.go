package pmsnet

import (
	"fmt"
	"testing"
)

// TestWorkloadSmoke runs every registered generator family, at its schema
// defaults, through the two scheduler-exercising TDM modes. `make check`
// runs it under -race: a new family cannot land without surviving dynamic
// arbitration and hybrid preload planning end to end.
func TestWorkloadSmoke(t *testing.T) {
	configs := []struct {
		label string
		cfg   Config
	}{
		{"tdm-dynamic", Config{Switching: DynamicTDM, N: 16}},
		{"tdm-hybrid", Config{Switching: HybridTDM, N: 16, PreloadSlots: 1}},
	}
	for _, name := range WorkloadNames() {
		wl, err := GenerateWorkload(name, 16, 1)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for _, c := range configs {
			t.Run(fmt.Sprintf("%s/%s", name, c.label), func(t *testing.T) {
				rep, err := Run(c.cfg, wl)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Messages == 0 {
					t.Fatal("run delivered no messages")
				}
				if rep.Efficiency <= 0 || rep.Efficiency > 1 {
					t.Fatalf("efficiency %.3f out of (0,1]", rep.Efficiency)
				}
				if rep.Workload != wl.Name() {
					t.Fatalf("report names workload %q, want %q", rep.Workload, wl.Name())
				}
			})
		}
	}
}
