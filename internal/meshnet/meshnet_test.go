package meshnet

import (
	"reflect"
	"testing"
	"testing/quick"

	"pmsnet/internal/fault"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
)

func TestGridPathXY(t *testing.T) {
	g, err := NewGrid(16) // 4x4
	if err != nil {
		t.Fatal(err)
	}
	// (0,0) -> (2,1): two hops east, one hop south.
	src := g.Mesh.Rank(0, 0)
	dst := g.Mesh.Rank(2, 1)
	path := g.Path(src, dst)
	if len(path) != 3 {
		t.Fatalf("path length = %d, want 3", len(path))
	}
	if path[0].Dir != topology.East || path[1].Dir != topology.East || path[2].Dir != topology.South {
		t.Fatalf("path = %v, want E,E,S (XY order)", path)
	}
	if g.Hops(src, dst) != 3 {
		t.Fatal("Hops inconsistent with Path")
	}
	if g.Path(src, src) != nil {
		t.Fatal("self path should be empty")
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := NewGrid(1); err == nil {
		t.Fatal("single processor should fail")
	}
}

// TestQuickPathsAreMinimalAndConnected: every XY path walks adjacent
// routers, ends at the destination, and has Manhattan-distance length.
func TestQuickPathsAreMinimalAndConnected(t *testing.T) {
	g, _ := NewGrid(64) // 8x8
	f := func(rawS, rawD uint8) bool {
		src, dst := int(rawS)%64, int(rawD)%64
		path := g.Path(src, dst)
		x1, y1 := g.Mesh.Coord(src)
		x2, y2 := g.Mesh.Coord(dst)
		manhattan := abs(x1-x2) + abs(y1-y2)
		if len(path) != manhattan {
			return false
		}
		cur := src
		for _, h := range path {
			if h.From != cur {
				return false
			}
			cur = g.Mesh.Neighbor(cur, h.Dir)
			if cur < 0 {
				return false
			}
		}
		return cur == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestWormholeMeshSingleMessage(t *testing.T) {
	nw, err := NewWormhole(WormholeConfig{N: 16})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Name() != "mesh-wormhole" {
		t.Fatal("name wrong")
	}
	// One 64-byte message across one hop (neighbors).
	progs := make([]traffic.Program, 16)
	progs[0] = traffic.Program{Ops: []traffic.Op{traffic.Send(1, 64)}}
	wl := &traffic.Workload{Name: "one-hop", N: 16, Programs: progs}
	res, err := nw.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 {
		t.Fatal("message lost")
	}
	// Head at router 80, arb 10, +10 switch +80 pipe => next router at 180;
	// body drains 80, ejection pipe 80 + NIC 10: delivery at 350.
	if res.LatencyMax != 350 {
		t.Fatalf("one-hop latency = %v, want 350ns", res.LatencyMax)
	}
}

func TestWormholeMeshLatencyGrowsPerHop(t *testing.T) {
	nw, _ := NewWormhole(WormholeConfig{N: 64})
	g, _ := NewGrid(64)
	// Corner-to-corner: 14 hops on an 8x8 grid.
	src, dst := g.Mesh.Rank(0, 0), g.Mesh.Rank(7, 7)
	if g.Hops(src, dst) != 14 {
		t.Fatalf("hops = %d, want 14", g.Hops(src, dst))
	}
	one := oneMsg(64, src, g.Mesh.Rank(1, 0), 64)
	far := oneMsg(64, src, dst, 64)
	r1, err := nw.Run(one)
	if err != nil {
		t.Fatal(err)
	}
	r14, err := nw.Run(far)
	if err != nil {
		t.Fatal(err)
	}
	// Each extra hop costs arbitration + switch + serdes pipe (~100 ns).
	perHop := (r14.LatencyMax - r1.LatencyMax) / 13
	if perHop < 80 || perHop > 120 {
		t.Fatalf("per-hop wormhole cost = %v, want ~100ns", perHop)
	}
}

func oneMsg(n, src, dst, bytes int) *traffic.Workload {
	progs := make([]traffic.Program, n)
	progs[src] = traffic.Program{Ops: []traffic.Op{traffic.Send(dst, bytes)}}
	return &traffic.Workload{Name: "one", N: n, Programs: progs}
}

func TestTDMMeshSingleMessage(t *testing.T) {
	nw, err := NewTDM(TDMConfig{N: 16, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Name() != "mesh-tdm/k=4" {
		t.Fatal("name wrong")
	}
	res, err := nw.Run(oneMsg(16, 0, 1, 64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages != 1 {
		t.Fatal("message lost")
	}
}

func TestTDMMeshLatencyNearlyFlatInHops(t *testing.T) {
	// The paper's multi-hop claim: an end-to-end analog circuit pays only
	// 20 ns of wire per extra hop, so corner-to-corner costs barely more
	// than one hop — unlike wormhole's ~100 ns per hop.
	nw, _ := NewTDM(TDMConfig{N: 64, K: 4})
	g, _ := NewGrid(64)
	src, dst := g.Mesh.Rank(0, 0), g.Mesh.Rank(7, 7)
	r1, err := nw.Run(oneMsg(64, src, g.Mesh.Rank(1, 0), 64))
	if err != nil {
		t.Fatal(err)
	}
	r14, err := nw.Run(oneMsg(64, src, dst, 64))
	if err != nil {
		t.Fatal(err)
	}
	extra := r14.LatencyMax - r1.LatencyMax
	// 13 extra hops x 20 ns wire = 260 ns, plus slot-phase jitter.
	if extra > 400 {
		t.Fatalf("13 extra hops cost %v on the TDM mesh, want ~260ns (wire only)", extra)
	}
}

func TestMeshModelsCompleteAllWorkloads(t *testing.T) {
	wh, _ := NewWormhole(WormholeConfig{N: 16})
	td, _ := NewTDM(TDMConfig{N: 16, K: 4})
	for _, wl := range []*traffic.Workload{
		traffic.OrderedMesh(16, 64, 5),
		traffic.RandomMesh(16, 64, 8, 1),
		traffic.Transpose(16, 64, 5),
		traffic.Scatter(16, 64),
	} {
		rw, err := wh.Run(wl)
		if err != nil {
			t.Fatalf("mesh-wormhole on %s: %v", wl.Name, err)
		}
		rt, err := td.Run(wl)
		if err != nil {
			t.Fatalf("mesh-tdm on %s: %v", wl.Name, err)
		}
		if rw.Messages != wl.MessageCount() || rt.Messages != wl.MessageCount() {
			t.Fatalf("%s: conservation violated", wl.Name)
		}
	}
}

// TestTDMMeshSelfCheck runs the TDM mesh with the NIC-buffer self-check
// armed, fault-free and with corrupted payloads (whose end-to-end
// retransmissions re-enter the buffers), and checks that arming it does not
// change the report.
func TestTDMMeshSelfCheck(t *testing.T) {
	for _, plan := range []*fault.Plan{nil, {Seed: 3, CorruptProb: 0.1}} {
		for _, wl := range []*traffic.Workload{
			traffic.RandomMesh(16, 200, 12, 2),
			traffic.Transpose(16, 130, 4),
		} {
			plain, _ := NewTDM(TDMConfig{N: 16, K: 4, Faults: plan})
			checked, _ := NewTDM(TDMConfig{N: 16, K: 4, Faults: plan, SelfCheck: true})
			want, err := plain.Run(wl)
			if err != nil {
				t.Fatalf("%s: %v", wl.Name, err)
			}
			got, err := checked.Run(wl)
			if err != nil {
				t.Fatalf("%s with self-check: %v", wl.Name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: self-check changed the report", wl.Name)
			}
			if plan != nil && got.Stats.Faults.Retries == 0 {
				t.Fatalf("%s: no retransmission at 10%% corruption", wl.Name)
			}
		}
	}
}

func TestMeshDeterminism(t *testing.T) {
	td, _ := NewTDM(TDMConfig{N: 16, K: 4})
	wl := traffic.RandomMesh(16, 64, 10, 5)
	a, err := td.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	b, err := td.Run(wl)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Stats != b.Stats {
		t.Fatal("mesh TDM runs differ")
	}
}

func TestTDMMeshValidation(t *testing.T) {
	if _, err := NewTDM(TDMConfig{N: 1}); err == nil {
		t.Fatal("N=1 should fail")
	}
	if _, err := NewTDM(TDMConfig{N: 16, K: -1}); err == nil {
		t.Fatal("negative K should fail")
	}
	if _, err := NewTDM(TDMConfig{N: 16, SlotNs: 100, PayloadBytes: 100}); err == nil {
		t.Fatal("oversized payload should fail")
	}
}
