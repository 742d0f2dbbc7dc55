// Package integration cross-checks every network model against every
// workload family under one set of system-wide invariants: completion, byte
// conservation, causal latencies, bounded efficiency, and bit-for-bit
// determinism. These are the properties that must survive any future change
// to any model.
package integration

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"pmsnet/internal/circuit"
	"pmsnet/internal/fabric"
	"pmsnet/internal/meshnet"
	"pmsnet/internal/metrics"
	"pmsnet/internal/netmodel"
	"pmsnet/internal/predictor"
	"pmsnet/internal/sim"
	"pmsnet/internal/tdm"
	"pmsnet/internal/traffic"
	"pmsnet/internal/voq"
	"pmsnet/internal/wormhole"
)

const n = 16

func networks(t *testing.T) []netmodel.Network {
	t.Helper()
	var nets []netmodel.Network
	add := func(nw netmodel.Network, err error) {
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, nw)
	}
	add(wormhole.New(wormhole.Config{N: n}))
	add(circuit.New(circuit.Config{N: n}))
	add(voq.New(voq.Config{N: n}))
	add(voq.New(voq.Config{N: n, Iterations: 4}))
	add(tdm.New(tdm.Config{N: n, K: 4}))
	add(tdm.New(tdm.Config{N: n, K: 4,
		NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(500) }}))
	add(tdm.New(tdm.Config{N: n, K: 4,
		NewPredictor: func() predictor.Predictor { return predictor.NewCounter(8) }}))
	add(tdm.New(tdm.Config{N: n, K: 4,
		NewPredictor: func() predictor.Predictor { return predictor.NewMarkov(1000) }}))
	add(tdm.New(tdm.Config{N: n, K: 4, Mode: tdm.Preload}))
	add(tdm.New(tdm.Config{N: n, K: 3, Mode: tdm.Hybrid, PreloadSlots: 1,
		NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(250) }}))
	add(tdm.New(tdm.Config{N: n, K: 4, Fabric: fabric.KindOmega}))
	add(tdm.New(tdm.Config{N: n, K: 4, Mode: tdm.Preload, Fabric: fabric.KindOmega}))
	add(tdm.New(tdm.Config{N: n, K: 4, AmplifyBytes: 256,
		NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(500) }}))
	add(meshnet.NewWormhole(meshnet.WormholeConfig{N: n}))
	add(meshnet.NewTDM(meshnet.TDMConfig{N: n, K: 4}))
	return nets
}

func workloads() []*traffic.Workload {
	return []*traffic.Workload{
		traffic.Scatter(n, 64),
		traffic.Scatter(n, 2048),
		traffic.OrderedMesh(n, 8, 4),
		traffic.OrderedMesh(n, 512, 2),
		traffic.RandomMesh(n, 64, 8, 1),
		traffic.AllToAll(n, 32),
		traffic.TwoPhase(n, 64, 2),
		traffic.Mix(n, 64, 8, 0.7, 150, 3),
		traffic.Hotspot(n, 32, 4, 1024, 6, 5),
		traffic.Transpose(n, 64, 4),
		traffic.BitReverse(n, 64, 4),
		traffic.Shift(n, 64, 4, 3),
		experimentsCyclic(),
	}
}

// experimentsCyclic builds a sparse cyclic workload inline (avoiding a
// dependency on internal/experiments, which imports this package's
// dependents).
func experimentsCyclic() *traffic.Workload {
	w := &traffic.Workload{Name: "cyclic", N: n, Programs: make([]traffic.Program, n)}
	for p := 0; p < n; p++ {
		var ops []traffic.Op
		for c := 0; c < 3; c++ {
			for _, d := range []int{(p + 1) % n, (p + 5) % n} {
				if d == p {
					continue
				}
				ops = append(ops, traffic.Send(d, 16), traffic.Delay(700))
			}
		}
		w.Programs[p] = traffic.Program{Ops: ops}
	}
	return w
}

// TestInvariantsEveryNetworkEveryWorkload is the full cross product.
func TestInvariantsEveryNetworkEveryWorkload(t *testing.T) {
	for _, wl := range workloads() {
		for _, nw := range networks(t) {
			name := fmt.Sprintf("%s/%s", nw.Name(), wl.Name)
			t.Run(name, func(t *testing.T) {
				res, err := nw.Run(wl)
				if err != nil {
					// Preload-only networks legitimately reject workloads
					// whose traffic is not statically covered; everything
					// else is a real failure — and a stall always is.
					if errors.Is(err, netmodel.ErrStalled) {
						t.Fatalf("stalled: %v", err)
					}
					if strings.Contains(err.Error(), "static phase") {
						t.Skipf("not statically servable: %v", err)
					}
					t.Fatalf("run failed: %v", err)
				}
				assertInvariants(t, wl, res)
			})
		}
	}
}

func assertInvariants(t *testing.T, wl *traffic.Workload, res metrics.Result) {
	t.Helper()
	if res.Messages != wl.MessageCount() {
		t.Fatalf("delivered %d of %d messages", res.Messages, wl.MessageCount())
	}
	if res.Bytes != wl.TotalBytes() {
		t.Fatalf("delivered %d of %d bytes", res.Bytes, wl.TotalBytes())
	}
	if res.Efficiency <= 0 || res.Efficiency > 1 {
		t.Fatalf("efficiency %v outside (0,1]", res.Efficiency)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan %v", res.Makespan)
	}
	// No message can beat the physical floor: NIC send + one-way pipe +
	// NIC receive (every paradigm pays at least serdes + wire + receive).
	const floor = sim.Time(10 + 80 + 10)
	if res.LatencyP50 < floor {
		t.Fatalf("median latency %v below the physical floor %v", res.LatencyP50, floor)
	}
	if res.LatencyMax < res.LatencyP95 || res.LatencyP95 < res.LatencyP50 {
		t.Fatalf("latency percentiles out of order: %v %v %v",
			res.LatencyP50, res.LatencyP95, res.LatencyMax)
	}
	if res.FairnessJain <= 0 || res.FairnessJain > 1.0000001 {
		t.Fatalf("Jain index %v out of range", res.FairnessJain)
	}
}

// TestDeterminismEveryNetwork re-runs one mixed workload twice per network
// and requires identical results.
func TestDeterminismEveryNetwork(t *testing.T) {
	wl := traffic.TwoPhase(n, 64, 9)
	for _, nw := range networks(t) {
		t.Run(nw.Name(), func(t *testing.T) {
			a, err := nw.Run(wl)
			if err != nil {
				t.Fatal(err)
			}
			b, err := nw.Run(wl)
			if err != nil {
				t.Fatal(err)
			}
			if a.Makespan != b.Makespan || a.Efficiency != b.Efficiency ||
				a.LatencyMean != b.LatencyMean || a.Stats != b.Stats {
				t.Fatalf("runs differ:\n%+v\n%+v", a, b)
			}
		})
	}
}

// TestFullScaleSpotCheck runs the paper-scale system once per paradigm to
// catch anything that only breaks at 128 ports.
func TestFullScaleSpotCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale spot check")
	}
	const big = 128
	wl := traffic.RandomMesh(big, 64, 10, 1)
	var nets []netmodel.Network
	wh, _ := wormhole.New(wormhole.Config{N: big})
	cs, _ := circuit.New(circuit.Config{N: big})
	dy, _ := tdm.New(tdm.Config{N: big, K: 4,
		NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(500) }})
	pr, _ := tdm.New(tdm.Config{N: big, K: 4, Mode: tdm.Preload})
	om, _ := tdm.New(tdm.Config{N: big, K: 4, Fabric: fabric.KindOmega})
	nets = append(nets, wh, cs, dy, pr, om)
	for _, nw := range nets {
		res, err := nw.Run(wl)
		if err != nil {
			t.Fatalf("%s: %v", nw.Name(), err)
		}
		if res.Messages != wl.MessageCount() {
			t.Fatalf("%s: delivered %d of %d", nw.Name(), res.Messages, wl.MessageCount())
		}
	}
}
