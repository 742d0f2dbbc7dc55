// Package plan computes preload schedules from demand matrices.
//
// The paper's preload and hybrid modes (§3.1, Fig 5) pin hand-written
// configuration groups: each static phase is edge-colored into conflict-free
// configurations and every configuration gets exactly one slot register,
// regardless of how much traffic it carries. This package closes the loop
// the other way — given an integer demand matrix (slots of traffic per
// connection), a Planner decides *which* configurations to pin, *how many*
// of the pinned slot registers each one occupies, and *what* to spill onto
// the dynamic path, charging every configuration-group swap at the control
// plane's reconfiguration delay.
//
// Three planners are provided:
//
//   - Static reproduces today's hand-written preloads bit for bit (exact
//     edge coloring, one register per configuration, groups in decomposition
//     order) so planned and unplanned runs can be A/B'd.
//   - Solstice runs a heaviest-edge greedy cover, the baseline that
//     "Costly Circuits, Submodular Schedules" (Eclipse) compares against,
//     not Eclipse or Liu et al.'s Solstice themselves: repeatedly extract a
//     greedy heaviest-edge-first conflict-free matching from the remaining
//     demand, charge each extra configuration at the reconfiguration cost,
//     and route leftovers that cannot pay for a pinned register to the
//     dynamic slots.
//   - BvN performs a Birkhoff–von-Neumann-style weighted decomposition
//     (per Minaeva et al.) via multistage.DecomposeBvN: the demand splits
//     exactly into weighted partial permutations and register shares follow
//     the weights.
//
// All planners are deterministic: identical inputs produce identical
// schedules, independent of map iteration order or parallelism.
package plan

import (
	"fmt"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
	"pmsnet/internal/vocab"
)

// Demand is a non-negative integer N×N demand matrix: entry (u,v) is the
// number of TDM slots connection u→v needs to drain its traffic. The boolean
// request matrices elsewhere in the repo (bitmat.Matrix) cannot express skew;
// planning is exactly the place where magnitudes matter.
type Demand struct {
	n int
	d []int64 // row-major
}

// NewDemand returns an all-zero n×n demand matrix.
func NewDemand(n int) *Demand {
	if n <= 0 {
		panic(fmt.Sprintf("plan: invalid demand size %d", n))
	}
	return &Demand{n: n, d: make([]int64, n*n)}
}

// N returns the port count.
func (d *Demand) N() int { return d.n }

func (d *Demand) idx(u, v int) int {
	if u < 0 || u >= d.n || v < 0 || v >= d.n {
		panic(fmt.Sprintf("plan: demand index (%d,%d) out of range for n=%d", u, v, d.n))
	}
	return u*d.n + v
}

// At returns the demand of connection u→v in slots.
func (d *Demand) At(u, v int) int64 { return d.d[d.idx(u, v)] }

// Set replaces the demand of u→v.
func (d *Demand) Set(u, v int, w int64) {
	if w < 0 {
		panic("plan: negative demand")
	}
	d.d[d.idx(u, v)] = w
}

// Add adds w slots of demand to u→v.
func (d *Demand) Add(u, v int, w int64) {
	if w < 0 {
		panic("plan: negative demand")
	}
	d.d[d.idx(u, v)] += w
}

// Clone returns a deep copy.
func (d *Demand) Clone() *Demand {
	c := NewDemand(d.n)
	copy(c.d, d.d)
	return c
}

// Total returns the summed demand in slots.
func (d *Demand) Total() int64 {
	var t int64
	for _, w := range d.d {
		t += w
	}
	return t
}

// Conns returns the number of connections with positive demand.
func (d *Demand) Conns() int {
	c := 0
	for _, w := range d.d {
		if w > 0 {
			c++
		}
	}
	return c
}

// IsZero reports whether no connection has demand.
func (d *Demand) IsZero() bool {
	for _, w := range d.d {
		if w > 0 {
			return false
		}
	}
	return true
}

// WorkingSet returns the support of the demand as a topology working set.
func (d *Demand) WorkingSet() *topology.WorkingSet {
	ws := topology.NewWorkingSet(d.n)
	for u := 0; u < d.n; u++ {
		for v := 0; v < d.n; v++ {
			if d.d[u*d.n+v] > 0 {
				ws.Add(topology.Conn{Src: u, Dst: v})
			}
		}
	}
	return ws
}

// Restrict returns a copy of d keeping only the connections present in ws.
func (d *Demand) Restrict(ws *topology.WorkingSet) *Demand {
	c := NewDemand(d.n)
	for _, conn := range ws.Conns() {
		c.Set(conn.Src, conn.Dst, d.At(conn.Src, conn.Dst))
	}
	return c
}

// FromWorkload builds the whole-workload demand matrix: every OpSend /
// OpSendWait contributes ceil(bytes/payloadBytes) slots to its connection.
// payloadBytes must be positive (use the network's slot payload).
func FromWorkload(wl *traffic.Workload, payloadBytes int) *Demand {
	if payloadBytes <= 0 {
		panic(fmt.Sprintf("plan: invalid payload size %d", payloadBytes))
	}
	d := NewDemand(wl.N)
	for src, prog := range wl.Programs {
		for _, op := range prog.Ops {
			if op.Kind != traffic.OpSend && op.Kind != traffic.OpSendWait {
				continue
			}
			slots := (int64(op.Bytes) + int64(payloadBytes) - 1) / int64(payloadBytes)
			if slots < 1 {
				slots = 1
			}
			d.Add(src, op.Dst, slots)
		}
	}
	return d
}

// Options tunes a planning run.
type Options struct {
	// ReconfigSlots is the cost of one configuration-group swap, in slots.
	// The paper's control plane needs 80 ns to move a configuration through
	// request/schedule/grant (link.Model.ControlDelay); at the default
	// 100 ns slot that is 0.8 slots. Zero means swaps are free.
	ReconfigSlots float64
	// CoverAll forces the planner to cover every connection with positive
	// demand (pure Preload mode, where an uncovered connection would never
	// be granted a slot). When false (hybrid mode), configurations that
	// cannot pay for a pinned register spill to Schedule.Residual and ride
	// the dynamic slots.
	CoverAll bool
	// CanRealize, when non-nil, restricts configurations to those the
	// fabric backend can route (the blocking Omega). Nil means every
	// partial permutation is realizable (the crossbar).
	CanRealize func(*bitmat.Matrix) bool
	// Decompose overrides the static planner's decomposition (defaults to
	// the exact edge coloring). The tdm preloader passes the fabric
	// backend's Decompose so static planning is bit-identical to the
	// unplanned path.
	Decompose func(*topology.WorkingSet) ([]*bitmat.Matrix, error)
}

// Entry is one planned configuration.
type Entry struct {
	// Config is the conflict-free (partial permutation) configuration.
	Config *bitmat.Matrix
	// Share is the number of pinned slot registers the configuration
	// occupies within its group's TDM cycle (≥1 once grouped).
	Share int
	// Demand is the per-cycle drain requirement: the configuration must
	// stay loaded for ceil(Demand/Share) cycles. For the matching-based
	// planners this is the heaviest connection in the configuration; for
	// BvN it is the term's weight.
	Demand int64
	// Covered is the total demand in slots this configuration serves.
	Covered int64
}

// Schedule is a planner's output: configuration groups ready for the tdm
// preload controller, the residual demand left to the dynamic path, and the
// planner's own drain estimate under its cost model.
type Schedule struct {
	// Planner is the producing planner's name.
	Planner string
	// N is the port count; K the TDM frame size; PreloadSlots the pinned
	// registers per group (equal to K in pure preload mode).
	N, K, PreloadSlots int
	// Groups holds the planned configuration groups in load order. Shares
	// within a group sum to at most PreloadSlots.
	Groups [][]Entry
	// Residual is the demand spilled to the dynamic slots (never nil;
	// all-zero when everything is covered).
	Residual *Demand
	// Covered is the demand served by the groups (input minus residual).
	Covered *Demand
	// DrainSlots is the planner's estimate of the wall-clock slots needed
	// to drain Covered, reconfiguration charges included.
	DrainSlots float64
	// Reconfigs counts the charged configuration-group loads.
	Reconfigs int
}

// Configs flattens the schedule for the preload controller: one slice of
// configurations per group, where an entry with Share s appears s times so it
// occupies s of the pinned slot registers.
func (s *Schedule) Configs() [][]*bitmat.Matrix {
	out := make([][]*bitmat.Matrix, len(s.Groups))
	for gi, g := range s.Groups {
		var flat []*bitmat.Matrix
		for _, e := range g {
			share := e.Share
			if share < 1 {
				share = 1
			}
			for i := 0; i < share; i++ {
				flat = append(flat, e.Config)
			}
		}
		out[gi] = flat
	}
	return out
}

// NumConfigs returns the number of distinct planned configurations.
func (s *Schedule) NumConfigs() int {
	n := 0
	for _, g := range s.Groups {
		n += len(g)
	}
	return n
}

// Planner computes a preload schedule from a demand matrix. k is the TDM
// frame size (slot registers per port) and preloadSlots how many of them are
// pinned; 0 < preloadSlots ≤ k.
type Planner interface {
	// Name returns the planner's parseable name.
	Name() string
	// Plan computes the schedule. The demand is not mutated.
	Plan(d *Demand, k, preloadSlots int, opts Options) (*Schedule, error)
}

// Kind enumerates the built-in planners.
type Kind int

const (
	// KindStatic is today's hand-written preload path.
	KindStatic Kind = iota
	// KindSolstice is the greedy cover with reconfiguration charging.
	KindSolstice
	// KindBvN is the Birkhoff–von-Neumann weighted decomposition.
	KindBvN
)

// Kinds is the planner vocabulary (the pmsim -planner flag), indexed by
// Kind.
var Kinds = vocab.New[Kind]("planner", "static", "solstice", "bvn")

// String implements fmt.Stringer.
func (k Kind) String() string { return Kinds.Name(k) }

// New builds the planner for a kind.
func New(k Kind) Planner {
	switch k {
	case KindStatic:
		return Static{}
	case KindSolstice:
		return Solstice{}
	case KindBvN:
		return BvN{}
	default:
		panic(fmt.Sprintf("plan: unknown planner kind %d", int(k)))
	}
}

func checkPlanArgs(d *Demand, k, preloadSlots int) error {
	if d == nil {
		return fmt.Errorf("plan: nil demand")
	}
	if k <= 0 {
		return fmt.Errorf("plan: invalid frame size k=%d", k)
	}
	if preloadSlots <= 0 || preloadSlots > k {
		return fmt.Errorf("plan: invalid preload slots %d (frame size %d)", preloadSlots, k)
	}
	return nil
}

// assignShares distributes exactly `slots` registers over the group's
// entries, each getting at least one, minimizing the group's drain cycles
// max_i ceil(Demand_i/Share_i). Greedy: hand each spare register to the
// entry currently bounding the cycle count (ties to the lowest index).
// It returns the resulting cycle count.
func assignShares(group []Entry, slots int) int64 {
	for i := range group {
		group[i].Share = 1
	}
	cycles := func(e Entry) int64 {
		c := (e.Demand + int64(e.Share) - 1) / int64(e.Share)
		if c < 1 {
			c = 1
		}
		return c
	}
	for spare := slots - len(group); spare > 0; spare-- {
		worst, worstC := 0, cycles(group[0])
		for i := 1; i < len(group); i++ {
			if c := cycles(group[i]); c > worstC {
				worst, worstC = i, c
			}
		}
		group[worst].Share++
	}
	var max int64 = 1
	for i := range group {
		if c := cycles(group[i]); c > max {
			max = c
		}
	}
	return max
}

// packGroups splits the ordered entries into configuration groups of at most
// preloadSlots entries each, choosing the boundaries by dynamic programming
// under the drain cost model: a group costs k slots per cycle for
// max ceil(Demand/Share) cycles (shares assigned by assignShares), and every
// group load is charged reconfig slots. Entries are expected
// heaviest-first; the DP preserves their order.
func packGroups(entries []Entry, k, preloadSlots int, reconfig float64) (groups [][]Entry, drain float64, reconfigs int) {
	n := len(entries)
	if n == 0 {
		return nil, 0, 0
	}
	groupCost := func(i, j int) float64 {
		g := append([]Entry(nil), entries[i:j]...)
		cycles := assignShares(g, preloadSlots)
		return float64(cycles)*float64(k) + reconfig
	}
	// best[i] = minimal cost to schedule entries[i:]; cut[i] = end of the
	// first group in that optimum.
	best := make([]float64, n+1)
	cut := make([]int, n+1)
	for i := n - 1; i >= 0; i-- {
		best[i] = -1
		for m := 1; m <= preloadSlots && i+m <= n; m++ {
			if c := groupCost(i, i+m) + best[i+m]; best[i] < 0 || c < best[i] {
				best[i], cut[i] = c, i+m
			}
		}
	}
	for i := 0; i < n; i = cut[i] {
		g := append([]Entry(nil), entries[i:cut[i]]...)
		assignShares(g, preloadSlots)
		groups = append(groups, g)
	}
	return groups, best[0], len(groups)
}

// residualThreshold is the minimum demand a configuration must cover to earn
// a pinned register in hybrid mode: one full TDM cycle of the frame plus the
// reconfiguration charge. Anything lighter is served faster by the dynamic
// slots than by cycling a nearly-empty pinned group.
func residualThreshold(k int, reconfig float64) int64 {
	return int64(reconfig) + int64(k)
}

// splitResidual drops trailing light entries into the residual demand. The
// entries must be ordered by decreasing usefulness; at least one entry is
// kept. CoverAll disables spilling entirely.
func splitResidual(entries []Entry, d *Demand, k int, opts Options) (kept []Entry, residual *Demand) {
	residual = NewDemand(d.N())
	if opts.CoverAll {
		return entries, residual
	}
	thr := residualThreshold(k, opts.ReconfigSlots)
	kept = entries
	for len(kept) > 1 && kept[len(kept)-1].Covered < thr {
		e := kept[len(kept)-1]
		e.Config.Ones(func(u, v int) bool {
			residual.Set(u, v, d.At(u, v))
			return true
		})
		kept = kept[:len(kept)-1]
	}
	return kept, residual
}

// coveredDemand returns d minus residual, elementwise (clamped at zero).
// The solstice residual holds a spilled connection's full demand; the BvN
// residual can hold just the dropped terms' weights, leaving the connection
// partially covered.
func coveredDemand(d, residual *Demand) *Demand {
	c := d.Clone()
	n := c.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if r := residual.At(u, v); r > 0 {
				w := c.At(u, v) - r
				if w < 0 {
					w = 0
				}
				c.Set(u, v, w)
			}
		}
	}
	return c
}
