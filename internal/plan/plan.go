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
	"cmp"
	"fmt"
	"slices"

	"pmsnet/internal/topology"
	"pmsnet/internal/traffic"
	"pmsnet/internal/vocab"
)

// Demand is a non-negative integer demand over the connections of an N-port
// switch: the demand of u→v is the number of TDM slots the connection needs
// to drain its traffic. Working sets say only which connections a phase
// uses and cannot express skew; planning is exactly the place where
// magnitudes matter. Only the connections with positive demand are held, as
// Conn.Key words in (Src, Dst) order with parallel weights (the layout of
// topology.WorkingSet), so every method costs O(connections), whatever N.
type Demand struct {
	n    int
	keys []uint64 // the Conn.Keys of the connections with demand, ascending
	w    []int64  // w[i] is the demand of keys[i], always positive
}

// NewDemand returns an all-zero demand over n ports.
func NewDemand(n int) *Demand {
	if n <= 0 {
		panic(fmt.Sprintf("plan: invalid demand size %d", n))
	}
	return &Demand{n: n}
}

// N returns the port count.
func (d *Demand) N() int { return d.n }

// find returns the position of u→v's key, or where it would be inserted.
func (d *Demand) find(u, v int) (int, bool) {
	if u < 0 || u >= d.n || v < 0 || v >= d.n {
		panic(fmt.Sprintf("plan: demand index (%d,%d) out of range for n=%d", u, v, d.n))
	}
	return slices.BinarySearch(d.keys, topology.Conn{Src: u, Dst: v}.Key())
}

// At returns the demand of connection u→v in slots.
func (d *Demand) At(u, v int) int64 {
	if i, ok := d.find(u, v); ok {
		return d.w[i]
	}
	return 0
}

// Set replaces the demand of u→v. Sets in (Src, Dst) order append.
func (d *Demand) Set(u, v int, w int64) {
	if w < 0 {
		panic("plan: negative demand")
	}
	i, ok := d.find(u, v)
	switch {
	case ok && w > 0:
		d.w[i] = w
	case ok:
		d.keys = slices.Delete(d.keys, i, i+1)
		d.w = slices.Delete(d.w, i, i+1)
	case w > 0:
		d.keys = slices.Insert(d.keys, i, topology.Conn{Src: u, Dst: v}.Key())
		d.w = slices.Insert(d.w, i, w)
	}
}

// Add adds w slots of demand to u→v.
func (d *Demand) Add(u, v int, w int64) {
	if w < 0 {
		panic("plan: negative demand")
	}
	d.Set(u, v, d.At(u, v)+w)
}

// Clone returns a deep copy.
func (d *Demand) Clone() *Demand {
	return &Demand{n: d.n, keys: slices.Clone(d.keys), w: slices.Clone(d.w)}
}

// Total returns the summed demand in slots.
func (d *Demand) Total() int64 {
	var t int64
	for _, w := range d.w {
		t += w
	}
	return t
}

// Conns returns the number of connections with positive demand.
func (d *Demand) Conns() int { return len(d.keys) }

// WorkingSet returns the support of the demand as a topology working set.
func (d *Demand) WorkingSet() *topology.WorkingSet {
	ws := topology.NewWorkingSetSized(d.n, len(d.keys))
	for _, k := range d.keys {
		ws.Add(topology.ConnOfKey(k))
	}
	return ws
}

// Restrict returns the demand of the connections present in ws, over ws's
// ports: restricting to a working set over more ports than d widens the
// demand to them.
func (d *Demand) Restrict(ws *topology.WorkingSet) *Demand {
	c := newDemandSized(ws.Ports(), min(ws.Len(), len(d.keys)))
	i := 0
	for _, k := range ws.Keys() {
		for i < len(d.keys) && d.keys[i] < k {
			i++
		}
		if i < len(d.keys) && d.keys[i] == k {
			c.keys = append(c.keys, k)
			c.w = append(c.w, d.w[i])
		}
	}
	return c
}

// newDemandSized returns an all-zero demand over n ports with room for
// conns connections.
func newDemandSized(n, conns int) *Demand {
	d := NewDemand(n)
	d.keys, d.w = make([]uint64, 0, conns), make([]int64, 0, conns)
	return d
}

// entry is one connection's demand, keyed by Conn.Key.
type entry struct {
	key uint64
	w   int64
}

// appendEntries sorts the entries by key and adds them, none below d's last
// key: the entries of one connection add up.
func (d *Demand) appendEntries(entries []entry) {
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	for _, e := range entries {
		if last := len(d.keys) - 1; last >= 0 && d.keys[last] == e.key {
			d.w[last] += e.w
		} else if e.w > 0 {
			d.keys = append(d.keys, e.key)
			d.w = append(d.w, e.w)
		}
	}
}

// FromWorkload builds the whole-workload demand: every OpSend / OpSendWait
// contributes ceil(bytes/payloadBytes) slots to its connection.
// payloadBytes must be positive (use the network's slot payload). Each
// program's sends are sorted by destination and appended as one row; the
// demand is sized for one connection per send.
func FromWorkload(wl *traffic.Workload, payloadBytes int) *Demand {
	if payloadBytes <= 0 {
		panic(fmt.Sprintf("plan: invalid payload size %d", payloadBytes))
	}
	d := newDemandSized(wl.N, wl.MessageCount())
	var row []entry
	for src, prog := range wl.Programs {
		row = row[:0]
		for _, op := range prog.Ops {
			if !op.IsSend() {
				continue
			}
			d.find(src, int(op.Dst)) // range check
			slots := (op.Bytes() + int64(payloadBytes) - 1) / int64(payloadBytes)
			row = append(row, entry{topology.Conn{Src: src, Dst: int(op.Dst)}.Key(), max(slots, 1)})
		}
		d.appendEntries(row)
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
	// fabric backend can route (the blocking Omega); it is handed each
	// candidate configuration as a port map. Nil means every partial
	// permutation is realizable (the crossbar).
	CanRealize func(cfg []int32) bool
	// Decompose overrides the static planner's decomposition (defaults to
	// the exact edge coloring). The tdm preloader passes the fabric
	// backend's Decompose so static planning is bit-identical to the
	// unplanned path.
	Decompose func(*topology.WorkingSet) ([][]int32, error)
}

// Entry is one planned configuration.
type Entry struct {
	// Config is the conflict-free (partial permutation) configuration as a
	// port map: Config[u] is the output input u connects to, or -1.
	Config []int32
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
	// empty when everything is covered).
	Residual *Demand
	// DrainSlots is the planner's estimate of the wall-clock slots needed
	// to drain the demand the groups serve (the input minus Residual),
	// reconfiguration charges included.
	DrainSlots float64
	// Reconfigs counts the charged configuration-group loads.
	Reconfigs int
}

// Configs flattens the schedule for the preload controller: one slice of
// configurations per group, where an entry with Share s appears s times so it
// occupies s of the pinned slot registers.
func (s *Schedule) Configs() [][][]int32 {
	out := make([][][]int32, len(s.Groups))
	for gi, g := range s.Groups {
		var flat [][]int32
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

// splitResidual drops trailing light entries into the residual demand over
// n ports. The entries must be ordered by decreasing usefulness; at least
// one entry is kept. CoverAll disables spilling entirely. A dropped entry e
// spills weight(e, u, v) slots of each of its connections u→v, and the
// residual adds up a connection's spills.
func splitResidual(entries []Entry, n, k int, opts Options, weight func(e Entry, u, v int) int64) (kept []Entry, residual *Demand) {
	kept = entries
	var spilled []entry
	if !opts.CoverAll {
		thr := residualThreshold(k, opts.ReconfigSlots)
		for len(kept) > 1 && kept[len(kept)-1].Covered < thr {
			e := kept[len(kept)-1]
			for u, v := range e.Config {
				if v >= 0 {
					spilled = append(spilled, entry{topology.Conn{Src: u, Dst: int(v)}.Key(), weight(e, u, int(v))})
				}
			}
			kept = kept[:len(kept)-1]
		}
	}
	residual = NewDemand(n)
	residual.appendEntries(spilled)
	return kept, residual
}
