package experiments

import (
	"reflect"
	"sync/atomic"
	"testing"

	"pmsnet/internal/fault"
	"pmsnet/internal/metrics"
	"pmsnet/internal/runner"
	"pmsnet/internal/sim"
	"pmsnet/internal/traffic"
)

// Serial-vs-parallel bit-identity: every run is a pure function of (model,
// workload, seed, plan) and the runner collects results by point index, so
// the rows a parallel sweep produces must deep-equal a serial run's —
// including every latency histogram bucket, scheduler counter and fault
// tally. These tests are the contract behind cmd/figures -j.

// identityN keeps the identity sweeps fast while still exercising every
// model; determinism does not depend on the processor count.
const identityN = 32

func TestFig4PanelParallelIdentity(t *testing.T) {
	sizes := []int{8, 64}
	for _, panel := range Panels() {
		panel := panel
		t.Run(string(panel), func(t *testing.T) {
			t.Parallel()
			serial, err := Fig4PanelExec(Serial, panel, identityN, sizes, 1)
			if err != nil {
				t.Fatal(err)
			}
			parallel, err := Fig4PanelExec(Exec{Parallelism: 4}, panel, identityN, sizes, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, parallel) {
				t.Fatalf("panel %s: parallel rows differ from serial rows", panel)
			}
		})
	}
}

func TestFig5ParallelIdentity(t *testing.T) {
	dets := []float64{0.5, 0.85, 1.0}
	serial, err := Fig5Exec(Serial, identityN, dets, 7)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Fig5Exec(Exec{Parallelism: 4}, identityN, dets, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel Fig5 rows differ from serial rows")
	}
}

func TestFaultSweepParallelIdentity(t *testing.T) {
	// An active fault plan is the hardest determinism case: every run
	// realizes the plan through its own seeded injector, so concurrent
	// points must not perturb each other's fault streams.
	levels := []FaultLevel{
		{"none", nil},
		{"corrupt 1%", &fault.Plan{Seed: 1, CorruptProb: 0.01}},
		{"link churn", &fault.Plan{Seed: 1, LinkMTBF: 200 * sim.Microsecond, LinkMTTR: 2 * sim.Microsecond}},
	}
	wl := traffic.RandomMesh(identityN, 64, 10, 1)
	serial, err := FaultSweepExec(Serial, identityN, wl, levels)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := FaultSweepExec(Exec{Parallelism: 4}, identityN, wl, levels)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel fault-sweep rows differ from serial rows")
	}
}

func TestFig4PanelWithFaultyNetworkPropagatesError(t *testing.T) {
	// A sweep error must surface through the parallel path just as through
	// the serial one (here: an invalid panel).
	if _, err := Fig4PanelExec(Exec{Parallelism: 4}, Panel("no-such-panel"), identityN, []int{8}, 1); err == nil {
		t.Fatal("expected workload construction error to propagate")
	}
}

func TestAblationParallelIdentity(t *testing.T) {
	wl := traffic.RandomMesh(identityN, 64, 10, 1)
	serial, err := DegreeSweepExec(Serial, identityN, []int{1, 2, 4}, wl)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := DegreeSweepExec(Exec{Parallelism: 3}, identityN, []int{1, 2, 4}, wl)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel degree-sweep results differ from serial results")
	}
}

func TestSeedSweepParallelIdentity(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	fn := func(i int) (metrics.Result, error) {
		nw, err := fig4Builders(identityN)[iDynamic]()
		if err != nil {
			return metrics.Result{}, err
		}
		return nw.Run(traffic.RandomMesh(identityN, 64, 10, seeds[i]))
	}
	serial, err := sweep(Serial, len(seeds), fn)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := sweep(Exec{Parallelism: 4}, len(seeds), fn)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("parallel seed-sweep results differ from serial results")
	}
}

func TestExecReportsProgress(t *testing.T) {
	var points atomic.Int64
	ex := Exec{Parallelism: 2, OnPoint: func(p runner.Point) {
		if p.Err != nil {
			t.Errorf("point %d failed: %v", p.Index, p.Err)
		}
		points.Add(1)
	}}
	if _, err := Fig4PanelExec(ex, Scatter, identityN, []int{8}, 1); err != nil {
		t.Fatal(err)
	}
	// One point per (size, network) pair: 1 size x 4 networks.
	if got := points.Load(); got != 4 {
		t.Fatalf("OnPoint fired %d times, want 4", got)
	}
}
