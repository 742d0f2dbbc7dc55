package traffic

import (
	"fmt"

	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// Adversarial and arrival-process patterns, after Tiny Tera's evaluation
// methodology: traffic crafted to defeat a specific mechanism rather than
// to model an application. PermChurn rotates the working set faster than
// any cache can amortize it; Incast starves one output port; Bursty breaks
// the smooth-arrival assumption the time-out predictor relies on.

// PermChurn builds the working-set adversary: `rounds` rounds, each a fresh
// seeded random permutation, each connection carrying `msgs` messages of
// `bytes` bytes before the permutation changes. Every round presents the
// scheduler with an unseen request matrix, so the connections established
// for one round are of no use to the next.
func PermChurn(n, bytes, msgs, rounds int, seed int64) *Workload {
	checkSize(n, bytes)
	if msgs <= 0 || rounds <= 0 {
		panic(fmt.Sprintf("traffic: perm-churn needs positive msgs and rounds, got msgs=%d rounds=%d", msgs, rounds))
	}
	w := &Workload{Name: fmt.Sprintf("perm-churn/r%d/%dB", rounds, bytes), N: n, Programs: make([]Program, n)}
	perm := make([]int, n)
	for r := 0; r < rounds; r++ {
		rng := sim.NewRNG(seed, uint64(r))
		for i := range perm {
			perm[i] = i
		}
		for i := n - 1; i > 0; i-- {
			j := rng.Intn(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		for p := 0; p < n; p++ {
			if perm[p] == p {
				continue
			}
			ops := w.Programs[p].Ops
			for m := 0; m < msgs; m++ {
				ops = append(ops, Send(perm[p], bytes))
			}
			w.Programs[p] = Program{Ops: ops}
		}
	}
	w.StaticPhases = []*topology.WorkingSet{w.ConnSet()}
	return w
}

// Incast builds the VOQ starvation adversary: every processor exchanges
// `background` messages with random mesh neighbors while all processors
// simultaneously stream `msgs` messages into processor 0. Unlike the
// Gather collective, the sink traffic is interleaved with background load,
// so the single hot output column contends with live cross-traffic.
func Incast(n, bytes, msgs, background int, seed int64) *Workload {
	checkSize(n, bytes)
	if msgs <= 0 || background < 0 {
		panic(fmt.Sprintf("traffic: incast needs positive msgs and non-negative background, got msgs=%d background=%d", msgs, background))
	}
	mesh := topology.MeshFor(n, false)
	w := &Workload{Name: fmt.Sprintf("incast/%dB", bytes), N: n, Programs: make([]Program, n)}
	phase := topology.NewWorkingSet(n)
	for p := 0; p < n; p++ {
		rng := sim.NewRNG(seed, uint64(p))
		nbs := mesh.Neighbors(p)
		for _, nb := range nbs {
			phase.Add(topology.Conn{Src: p, Dst: nb})
		}
		if p != 0 {
			phase.Add(topology.Conn{Src: p, Dst: 0})
		}
		steps := msgs
		if background > steps {
			steps = background
		}
		var ops []Op
		for i := 0; i < steps; i++ {
			if i < background {
				ops = append(ops, Send(nbs[rng.Intn(len(nbs))], bytes))
			}
			if i < msgs && p != 0 {
				ops = append(ops, Send(0, bytes))
			}
		}
		w.Programs[p] = Program{Ops: ops}
	}
	w.StaticPhases = []*topology.WorkingSet{phase}
	return w
}

// Bursty builds an MMPP-style on/off arrival process with heavy-tailed
// sizes: each processor emits `msgs` messages in bursts of geometric mean
// length `burst` to uniformly random destinations, idling between bursts
// for a random multiple of the burst length. Message sizes start at
// `bytes` and double with probability 1/4 per level (up to 32x), giving a
// discrete power-law tail. All draws are integer arithmetic on the seeded
// per-processor RNG streams, so the workload is bit-deterministic.
func Bursty(n, bytes, msgs, burst int, seed int64) *Workload {
	checkSize(n, bytes)
	if msgs <= 0 || burst <= 0 {
		panic(fmt.Sprintf("traffic: bursty needs positive msgs and burst, got msgs=%d burst=%d", msgs, burst))
	}
	w := &Workload{Name: fmt.Sprintf("bursty/%dB", bytes), N: n, Programs: make([]Program, n)}
	for p := 0; p < n; p++ {
		rng := sim.NewRNG(seed, uint64(p))
		var ops []Op
		remaining := msgs
		for remaining > 0 {
			blen := 1 + rng.Intn(2*burst-1) // uniform on [1, 2*burst-1], mean = burst
			for i := 0; i < blen && remaining > 0; i++ {
				dst := rng.Intn(n - 1)
				if dst >= p {
					dst++
				}
				size := bytes
				for level := 0; level < 5 && rng.Intn(4) == 0; level++ {
					size *= 2
				}
				ops = append(ops, Send(dst, size))
				remaining--
			}
			if remaining > 0 {
				// Off period: long enough to drain the burst's connections
				// out of a predictor that only remembers recent slots.
				off := sim.Time((1 + rng.Intn(4*burst)) * 100)
				ops = append(ops, Delay(off))
			}
		}
		w.Programs[p] = Program{Ops: ops}
	}
	w.StaticPhases = []*topology.WorkingSet{w.ConnSet()}
	return w
}
