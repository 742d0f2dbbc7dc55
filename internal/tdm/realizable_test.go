package tdm

import (
	"fmt"
	"math/bits"
	"strings"
	"testing"

	"pmsnet/internal/fabric"
	"pmsnet/internal/plan"
	"pmsnet/internal/traffic"
)

// bitReversalPlanner plans every phase into one group holding the
// bit-reversal permutation of the 8 ports, each output's low bit flipped so
// that no port sends to itself: u → reverse(u) XOR 1. Relabeling the
// outputs keeps the bit reversal's conflict, so the 8-port Omega network
// cannot route it in one pass.
type bitReversalPlanner struct{}

func (bitReversalPlanner) Name() string { return "bit-reversal" }

func (bitReversalPlanner) Plan(d *plan.Demand, k, preloadSlots int, _ plan.Options) (*plan.Schedule, error) {
	reversal := make([]int32, 8)
	for u := range reversal {
		reversal[u] = int32(bits.Reverse8(uint8(u))>>5) ^ 1
	}
	return &plan.Schedule{
		Planner: "bit-reversal", N: d.N(), K: k, PreloadSlots: preloadSlots,
		Groups:   [][]plan.Entry{{{Config: reversal, Share: 1, Demand: 1}}},
		Residual: plan.NewDemand(d.N()),
	}, nil
}

// TestPreloaderRefusesUnrealizablePlan hands the preloader a planned
// configuration the Omega fabric blocks. The preloader checks every
// configuration once when it builds its groups, so the run fails before
// its first slot with an error naming the group.
func TestPreloaderRefusesUnrealizablePlan(t *testing.T) {
	const n = 8
	b, err := fabric.NewBackend(fabric.KindOmega, n)
	if err != nil {
		t.Fatal(err)
	}
	reversal, _ := bitReversalPlanner{}.Plan(plan.NewDemand(n), 4, 4, plan.Options{})
	if b.CanRealize(reversal.Groups[0][0].Config) {
		t.Fatal("the bit reversal should be blocked on the 8-port omega")
	}
	for mode, cfg := range map[string]Config{
		"preload": {N: n, K: 4, Mode: Preload},
		"hybrid":  {N: n, K: 4, Mode: Hybrid, PreloadSlots: 2},
	} {
		cfg.Fabric = fabric.KindOmega
		cfg.Planner = bitReversalPlanner{}
		_, err := mustNew(t, cfg).start(traffic.TwoPhase(n, 32, 5))
		want := "tdm: configuration 0 of preload group 0 is not realizable on the omega fabric"
		if err == nil || err.Error() != want {
			t.Errorf("%s: start = %v, want %q", mode, err, want)
		}
	}
}

// TestSelfCheckKeepsSlotsRealizable runs every TDM mode on the blocking
// Omega fabric with the engine self-check armed, which checks every slot's
// configuration against the fabric after each event: configurations are
// checked only where they enter a slot, and the slots must stay realizable
// from there on.
func TestSelfCheckKeepsSlotsRealizable(t *testing.T) {
	for _, n := range []int{16, 64} {
		for _, pattern := range []string{"random-mesh:msgs=8", "two-phase"} {
			wl, err := traffic.Generate(pattern, n, 1)
			if err != nil {
				t.Fatal(err)
			}
			for mode, cfg := range map[string]Config{
				"dynamic": {N: n, K: 4},
				"preload": {N: n, K: 4, Mode: Preload},
				"hybrid":  {N: n, K: 4, Mode: Hybrid, PreloadSlots: 2},
			} {
				t.Run(fmt.Sprintf("%s/%s/n=%d", mode, pattern, n), func(t *testing.T) {
					cfg.Fabric = fabric.KindOmega
					res := identityRun(t, cfg, wl)
					if res.Messages != wl.MessageCount() {
						t.Fatalf("delivered %d of %d messages", res.Messages, wl.MessageCount())
					}
					if !strings.HasSuffix(res.Network, "/omega") {
						t.Fatalf("ran on %s, want the omega fabric", res.Network)
					}
				})
			}
		}
	}
}
