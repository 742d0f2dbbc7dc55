package traffic

import (
	"fmt"

	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// Scatter builds the paper's Scatter test: processor 0 sends a unique
// message of `bytes` bytes to every other processor. The full fan-out is
// statically known, so the single static phase contains all N-1 connections
// (degree N-1: the preload controller will cycle it through the K slots).
func Scatter(n, bytes int) *Workload {
	checkSize(n, bytes)
	w := &Workload{Name: fmt.Sprintf("scatter/%dB", bytes), N: n, Programs: make([]Program, n)}
	phase := topology.NewWorkingSet(n)
	var ops []Op
	for d := 1; d < n; d++ {
		ops = append(ops, Send(d, bytes))
		phase.Add(topology.Conn{Src: 0, Dst: d})
	}
	w.Programs[0] = Program{Ops: ops}
	w.StaticPhases = []*topology.WorkingSet{phase}
	return w
}

// OrderedMesh builds the paper's Ordered Mesh test: every processor sends to
// its 2-D mesh neighbors in the deterministic E,W,N,S round order, `rounds`
// times. The pattern is fully regular; the static phase is the complete
// nearest-neighbor working set (degree 4 on an interior mesh — exactly the
// multiplexing degree the paper simulates with).
func OrderedMesh(n, bytes, rounds int) *Workload {
	checkSize(n, bytes)
	if rounds <= 0 {
		panic(fmt.Sprintf("traffic: rounds %d must be positive", rounds))
	}
	mesh := topology.MeshFor(n, false)
	w := &Workload{Name: fmt.Sprintf("ordered-mesh/%dB", bytes), N: n, Programs: make([]Program, n)}
	phase := topology.NewWorkingSet(n)
	for p := 0; p < n; p++ {
		var ops []Op
		for r := 0; r < rounds; r++ {
			for _, d := range topology.Directions() {
				nb := mesh.Neighbor(p, d)
				if nb < 0 || nb == p {
					continue
				}
				ops = append(ops, Send(nb, bytes))
				if r == 0 {
					phase.Add(topology.Conn{Src: p, Dst: nb})
				}
			}
		}
		w.Programs[p] = Program{Ops: ops}
	}
	w.StaticPhases = []*topology.WorkingSet{phase}
	return w
}

// RandomMesh builds the paper's Random Mesh test: nearest-neighbor
// communication on the 2-D mesh "but without any predictability" — each of
// the `msgs` messages per processor goes to a uniformly random neighbor.
// The *set* of possible connections is still statically known (the neighbor
// working set), which is what a compiler could preload; the order is not.
func RandomMesh(n, bytes, msgs int, seed int64) *Workload {
	checkSize(n, bytes)
	if msgs <= 0 {
		panic(fmt.Sprintf("traffic: msgs %d must be positive", msgs))
	}
	mesh := topology.MeshFor(n, false)
	w := &Workload{Name: fmt.Sprintf("random-mesh/%dB", bytes), N: n, Programs: make([]Program, n)}
	phase := topology.NewWorkingSet(n)
	for p := 0; p < n; p++ {
		rng := sim.NewRNG(seed, uint64(p))
		nbs := mesh.Neighbors(p)
		var ops []Op
		for m := 0; m < msgs; m++ {
			ops = append(ops, Send(nbs[rng.Intn(len(nbs))], bytes))
		}
		w.Programs[p] = Program{Ops: ops}
		for _, nb := range nbs {
			phase.Add(topology.Conn{Src: p, Dst: nb})
		}
	}
	w.StaticPhases = []*topology.WorkingSet{phase}
	return w
}

// AllToAll builds a staggered all-to-all: processor i sends one message to
// i+1, i+2, ..., i+n-1 (mod n), so at each step the destinations form a
// permutation. This is the global phase of the paper's Two-Phase test.
func AllToAll(n, bytes int) *Workload {
	checkSize(n, bytes)
	w := &Workload{Name: fmt.Sprintf("all-to-all/%dB", bytes), N: n, Programs: make([]Program, n)}
	phase := topology.NewWorkingSet(n)
	for p := 0; p < n; p++ {
		var ops []Op
		for step := 1; step < n; step++ {
			d := (p + step) % n
			ops = append(ops, Send(d, bytes))
			phase.Add(topology.Conn{Src: p, Dst: d})
		}
		w.Programs[p] = Program{Ops: ops}
	}
	w.StaticPhases = []*topology.WorkingSet{phase}
	return w
}

// TwoPhase builds the paper's Two Phase test: "one 128-processor all-to-all
// communication followed by 16 random nearest neighbor communications." A
// compiler-style FLUSH plus a phase hint separate the phases (paper §3.3),
// and the two static phases (the all-to-all set, the neighbor set) are
// attached for the preload controller.
func TwoPhase(n, bytes int, seed int64) *Workload {
	checkSize(n, bytes)
	const nnRounds = 16
	mesh := topology.MeshFor(n, false)
	w := &Workload{Name: fmt.Sprintf("two-phase/%dB", bytes), N: n, Programs: make([]Program, n)}
	global := topology.NewWorkingSetSized(n, n*(n-1))
	local := topology.NewWorkingSetSized(n, 4*n) // at most four mesh neighbours each
	for p := 0; p < n; p++ {
		rng := sim.NewRNG(seed, uint64(p))
		ops := make([]Op, 0, n+nnRounds+2)
		ops = append(ops, Phase(0))
		for step := 1; step < n; step++ {
			d := (p + step) % n
			ops = append(ops, Send(d, bytes))
			global.Add(topology.Conn{Src: p, Dst: d})
		}
		ops = append(ops, Flush(), Phase(1))
		nbs := mesh.Neighbors(p)
		for m := 0; m < nnRounds; m++ {
			ops = append(ops, Send(nbs[rng.Intn(len(nbs))], bytes))
		}
		for _, nb := range nbs {
			local.Add(topology.Conn{Src: p, Dst: nb})
		}
		w.Programs[p] = Program{Ops: ops}
	}
	w.StaticPhases = []*topology.WorkingSet{global, local}
	return w
}

// FavoredDestinations returns processor p's two fixed favored destinations
// for the determinism-mix workload: the two static permutations dst=(p+1)
// mod n and dst=(p+stride) mod n, where stride is the mesh width (so the
// second permutation is the "south neighbor on the torus" pattern).
func FavoredDestinations(n, p int) [2]int {
	if n < 3 {
		panic(fmt.Sprintf("traffic: determinism mix needs n >= 3, got %d", n))
	}
	if p < 0 || p >= n {
		panic(fmt.Sprintf("traffic: processor %d outside [0,%d)", p, n))
	}
	stride := topology.MeshFor(n, true).Cols
	if stride <= 1 || stride >= n {
		stride = 2
	}
	return [2]int{(p + 1) % n, (p + stride) % n}
}

// Mix builds the Figure-5 workload: each processor alternates compute time
// (`think` nanoseconds) with sends; with probability `determinism` a message
// goes to one of the processor's two favored destinations (the statically
// known part a compiler could preload), otherwise to a uniformly random
// other processor. The static phase contains the two favored permutations,
// which decompose into exactly two conflict-free configurations — so k=1
// preloads one permutation and k=2 preloads both, matching the paper's
// 1-preload/2-dynamic and 2-preload/1-dynamic schemes at multiplexing
// degree 3.
//
// Sends are blocking (the processor waits for delivery before computing on),
// and the think time makes the traffic sparse: favored connections are not
// kept alive by a standing backlog, so the benefit of preloading them (no
// run-time scheduling on every reuse) is visible — the regime Figure 5
// explores.
func Mix(n, bytes, msgs int, determinism float64, think sim.Time, seed int64) *Workload {
	checkSize(n, bytes)
	if msgs <= 0 {
		panic(fmt.Sprintf("traffic: msgs %d must be positive", msgs))
	}
	if determinism < 0 || determinism > 1 {
		panic(fmt.Sprintf("traffic: determinism %v outside [0,1]", determinism))
	}
	if think < 0 {
		panic(fmt.Sprintf("traffic: negative think time %v", think))
	}
	w := &Workload{
		Name:     fmt.Sprintf("mix/%dB/d%.0f", bytes, determinism*100),
		N:        n,
		Programs: make([]Program, n),
	}
	phase := topology.NewWorkingSet(n)
	for p := 0; p < n; p++ {
		fav := FavoredDestinations(n, p)
		phase.Add(topology.Conn{Src: p, Dst: fav[0]})
		phase.Add(topology.Conn{Src: p, Dst: fav[1]})
		rng := sim.NewRNG(seed, uint64(p))
		var ops []Op
		for m := 0; m < msgs; m++ {
			if think > 0 {
				ops = append(ops, Delay(think))
			}
			var d int
			if rng.Float64() < determinism {
				d = fav[rng.Intn(2)]
			} else {
				for {
					d = rng.Intn(n)
					if d != p {
						break
					}
				}
			}
			ops = append(ops, SendWait(d, bytes))
		}
		w.Programs[p] = Program{Ops: ops}
	}
	w.StaticPhases = []*topology.WorkingSet{phase}
	return w
}

// Hotspot builds a bandwidth-amplification stressor: every processor
// exchanges `msgs` background messages with random mesh neighbors, while
// processor 0 additionally streams `hotMsgs` messages of `hotBytes` bytes to
// the far corner processor n-1. The hot connection's backlog outruns a
// single TDM slot share, which is the case core extension 2 (multi-slot
// connections) addresses.
func Hotspot(n, bytes, msgs, hotBytes, hotMsgs int, seed int64) *Workload {
	checkSize(n, bytes)
	if hotBytes <= 0 || hotMsgs <= 0 {
		panic(fmt.Sprintf("traffic: hot stream %dx%dB must be positive", hotMsgs, hotBytes))
	}
	w := RandomMesh(n, bytes, msgs, seed)
	w.Name = fmt.Sprintf("hotspot/%dB+%dx%dB", bytes, hotMsgs, hotBytes)
	hot := w.Programs[0].Ops
	for m := 0; m < hotMsgs; m++ {
		hot = append(hot, Send(n-1, hotBytes))
	}
	w.Programs[0] = Program{Ops: hot}
	w.StaticPhases[0].Add(topology.Conn{Src: 0, Dst: n - 1})
	return w
}

func checkSize(n, bytes int) {
	if n < 2 {
		panic(fmt.Sprintf("traffic: need at least 2 processors, got %d", n))
	}
	if bytes <= 0 {
		panic(fmt.Sprintf("traffic: message size %d must be positive", bytes))
	}
}
