package traffic

// Registration of every built-in workload family, in the canonical
// vocabulary order the CLIs print: first the paper's evaluation patterns
// and the classic permutations, then the post-paper families (collectives,
// phased programs, arrival-process and adversarial patterns). Schema
// defaults are the shared cross-binary defaults — the values cmd/pmsim's
// flags have always defaulted to.

func init() {
	// --- paper §5 evaluation patterns ---
	Register(&Generator{
		Name: "scatter",
		Doc:  "processor 0 fans one message out to every other processor",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return Scatter(n, a.Int("bytes"))
		},
	})
	Register(&Generator{
		Name: "ordered-mesh",
		Doc:  "deterministic nearest-neighbor rounds (E,W,N,S) on the 2-D mesh",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
			{Name: "rounds", Kind: KindInt, Default: "12", Doc: "neighbor rounds"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return OrderedMesh(n, a.Int("bytes"), a.Int("rounds"))
		},
	})
	Register(&Generator{
		Name: "random-mesh",
		Doc:  "uniformly random nearest-neighbor messages on the 2-D mesh",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
			{Name: "msgs", Kind: KindInt, Default: "50", Doc: "messages per processor"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return RandomMesh(n, a.Int("bytes"), a.Int("msgs"), seed)
		},
	})
	Register(&Generator{
		Name: "all-to-all",
		Doc:  "staggered all-to-all: each step's destinations form a permutation",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return AllToAll(n, a.Int("bytes"))
		},
	})
	Register(&Generator{
		Name: "two-phase",
		Doc:  "an all-to-all phase, a compiler flush, then random neighbor rounds",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return TwoPhase(n, a.Int("bytes"), seed)
		},
	})
	Register(&Generator{
		Name: "mix",
		Doc:  "Figure-5 determinism mix: favored-destination vs random blocking sends",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
			{Name: "msgs", Kind: KindInt, Default: "50", Doc: "messages per processor"},
			{Name: "determinism", Kind: KindFloat, Default: "0.85", Doc: "statically-known traffic fraction"},
			{Name: "think", Kind: KindDuration, Default: "150ns", Doc: "compute time between sends"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return Mix(n, a.Int("bytes"), a.Int("msgs"), a.Float("determinism"), a.Duration("think"), seed)
		},
	})
	Register(&Generator{
		Name: "hotspot",
		Doc:  "random-mesh background plus a heavy corner-to-corner stream",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "background message size"},
			{Name: "msgs", Kind: KindInt, Default: "50", Doc: "background messages per processor"},
			{Name: "hot-bytes", Kind: KindInt, Default: "2048", Doc: "hot-stream message size"},
			{Name: "hot-msgs", Kind: KindInt, Default: "50", Doc: "hot-stream message count"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return Hotspot(n, a.Int("bytes"), a.Int("msgs"), a.Int("hot-bytes"), a.Int("hot-msgs"), seed)
		},
	})

	// --- classic permutations ---
	Register(&Generator{
		Name: "transpose",
		Doc:  "matrix-transpose permutation on a square processor grid",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
			{Name: "msgs", Kind: KindInt, Default: "50", Doc: "messages per processor"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return Transpose(n, a.Int("bytes"), a.Int("msgs"))
		},
	})
	Register(&Generator{
		Name: "bit-reverse",
		Doc:  "bit-reversal (FFT) permutation; needs a power-of-two processor count",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
			{Name: "msgs", Kind: KindInt, Default: "50", Doc: "messages per processor"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return BitReverse(n, a.Int("bytes"), a.Int("msgs"))
		},
	})
	Register(&Generator{
		Name: "shift",
		Doc:  "uniform-shift permutation dst = (p + distance) mod n",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
			{Name: "msgs", Kind: KindInt, Default: "50", Doc: "messages per processor"},
			{Name: "distance", Kind: KindInt, Default: "1", Doc: "shift distance"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return Shift(n, a.Int("bytes"), a.Int("msgs"), a.Int("distance"))
		},
	})
	Register(&Generator{
		Name: "skewed",
		Doc:  "hot permutation over light background shifts — the planner stressor",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
			{Name: "msgs", Kind: KindInt, Default: "4", Doc: "messages per connection"},
			{Name: "factor", Kind: KindInt, Default: "8", Doc: "hot-shift demand multiplier"},
			{Name: "shifts", Kind: KindInt, Default: "8", Doc: "background shift count (shifts 1..count)"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			count := a.Int("shifts")
			if count < 1 {
				panic("skewed needs at least one shift")
			}
			shifts := make([]int, count)
			for i := range shifts {
				shifts[i] = i + 1
			}
			return Skewed("skewed", n, a.Int("bytes"), a.Int("msgs"), a.Int("factor"), shifts)
		},
	})

	// --- collectives (ROADMAP item 4) ---
	Register(&Generator{
		Name: "all-reduce",
		Doc:  "all-reduce collective: ring (bandwidth-optimal) or binomial tree",
		Params: []Param{
			{Name: "algo", Kind: KindEnum, Default: "ring", Enum: []string{"ring", "tree"}, Doc: "algorithm"},
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "chunk size per step"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			if a.Enum("algo") == "tree" {
				return AllReduceTree(n, a.Int("bytes"))
			}
			return AllReduceRing(n, a.Int("bytes"))
		},
	})
	Register(&Generator{
		Name: "broadcast",
		Doc:  "binomial-tree broadcast from processor 0",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
			{Name: "msgs", Kind: KindInt, Default: "1", Doc: "broadcast repetitions"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return Broadcast(n, a.Int("bytes"), a.Int("msgs"))
		},
	})
	Register(&Generator{
		Name: "gather",
		Doc:  "incast gather: every processor sends to the root",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
			{Name: "msgs", Kind: KindInt, Default: "1", Doc: "messages per processor"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return Gather(n, a.Int("bytes"), a.Int("msgs"))
		},
	})

	// --- phase-alternating programs ---
	Register(&Generator{
		Name: "phased",
		Doc:  "NAS-style program alternating stencil and global exchange phases",
		Params: []Param{
			{Name: "phases", Kind: KindInt, Default: "4", Doc: "phase count"},
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
			{Name: "msgs", Kind: KindInt, Default: "16", Doc: "messages per processor per phase"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return Phased(n, a.Int("bytes"), a.Int("msgs"), a.Int("phases"))
		},
	})
	Register(&Generator{
		Name: "tiles",
		Doc:  "SDM-NoC-style layer-wise tile dataflow: layer l streams to layer l+1",
		Params: []Param{
			{Name: "layers", Kind: KindInt, Default: "4", Doc: "layer count"},
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
			{Name: "msgs", Kind: KindInt, Default: "2", Doc: "messages per (src, dst) tile pair"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return Tiles(n, a.Int("bytes"), a.Int("msgs"), a.Int("layers"))
		},
	})

	// --- arrival-process and adversarial patterns ---
	Register(&Generator{
		Name: "bursty",
		Doc:  "MMPP-style on/off bursts with heavy-tailed message sizes",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "base message size"},
			{Name: "msgs", Kind: KindInt, Default: "60", Doc: "messages per processor"},
			{Name: "burst", Kind: KindInt, Default: "8", Doc: "mean burst length"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return Bursty(n, a.Int("bytes"), a.Int("msgs"), a.Int("burst"), seed)
		},
	})
	Register(&Generator{
		Name: "perm-churn",
		Doc:  "fresh random permutation every round — the working set never settles",
		Params: []Param{
			{Name: "rounds", Kind: KindInt, Default: "16", Doc: "permutation rounds"},
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
			{Name: "msgs", Kind: KindInt, Default: "4", Doc: "messages per round"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return PermChurn(n, a.Int("bytes"), a.Int("msgs"), a.Int("rounds"), seed)
		},
	})
	Register(&Generator{
		Name: "incast",
		Doc:  "adversarial incast: mesh background while everyone floods one sink",
		Params: []Param{
			{Name: "bytes", Kind: KindInt, Default: "64", Doc: "message size"},
			{Name: "msgs", Kind: KindInt, Default: "20", Doc: "sink messages per processor"},
			{Name: "background", Kind: KindInt, Default: "10", Doc: "background neighbor messages"},
		},
		Build: func(n int, a Args, seed int64) *Workload {
			return Incast(n, a.Int("bytes"), a.Int("msgs"), a.Int("background"), seed)
		},
	})
}
