package plan

import (
	"cmp"
	"slices"

	"pmsnet/internal/bitmat"
)

// Solstice plans by a heaviest-edge greedy cover followed by a grouping
// dynamic program. Despite its name it runs neither Solstice (Liu et al.'s
// hybrid-switch scheduler) nor Eclipse, the algorithm of "Costly Circuits,
// Submodular Schedules" (Venkatakrishnan, Alizadeh and Viswanath,
// arXiv:1512.01271), which compares against Solstice. Each round extracts a
// conflict-free configuration by heaviest-edge-first greedy matching (the
// classic 1/2-approximation to max-weight matching), until the demand is
// exhausted. Because a pinned
// configuration keeps serving its connections every cycle, each connection
// is covered by exactly one configuration, and configurations extracted
// later carry strictly less traffic — the natural heaviest-first order the
// group packer expects.
//
// Two departures from today's static preloads make the schedule
// demand-aware:
//
//   - Register shares. A group's pinned registers are divided in proportion
//     to each configuration's drain requirement (assignShares), so a hot
//     matching can hold several of the slot registers per cycle while light
//     matchings share the rest — instead of everyone getting exactly one.
//   - Reconfiguration charging. Group boundaries come from a dynamic
//     program that prices every extra group at Options.ReconfigSlots (the
//     80 ns control-plane delay in slot units), and in hybrid mode trailing
//     configurations too light to pay for a register (less than one TDM
//     cycle of coverage, residualThreshold) spill to the dynamic path.
type Solstice struct{}

// Name implements Planner.
func (Solstice) Name() string { return "solstice" }

// Plan implements Planner.
//
// The positive-demand edges are listed and sorted once, heaviest first with
// ties on (src, dst). Each round runs the greedy matching over the list,
// compacting in place the edges it skipped (row or column already used, or
// refused by CanRealize) and dropping the ones it covered. A covered
// connection's demand drops straight to zero and every other weight is
// untouched, so the survivors are exactly the next round's sorted edge list.
func (Solstice) Plan(d *Demand, k, preloadSlots int, opts Options) (*Schedule, error) {
	if err := checkPlanArgs(d, k, preloadSlots); err != nil {
		return nil, err
	}
	n := d.N()
	edges := d.edges()
	// edges lists row-major, so a stable sort by weight keeps equal weights
	// in (u, v) order.
	slices.SortStableFunc(edges, func(a, b weightedEdge) int { return cmp.Compare(b.w, a.w) })
	rowUsed := make([]bool, n)
	colUsed := make([]bool, n)
	var entries []Entry
	for len(edges) > 0 {
		cfg := bitmat.NewSquare(n)
		var maxConn, covered int64
		skipped := edges[:0]
		for _, e := range edges {
			if rowUsed[e.u] || colUsed[e.v] {
				skipped = append(skipped, e)
				continue
			}
			cfg.Set(e.u, e.v)
			if opts.CanRealize != nil && !opts.CanRealize(cfg) {
				cfg.Clear(e.u, e.v)
				skipped = append(skipped, e)
				continue
			}
			rowUsed[e.u], colUsed[e.v] = true, true
			covered += e.w
			maxConn = max(maxConn, e.w)
		}
		if covered == 0 {
			// Nothing realizable — should not happen (a single edge is
			// always a valid partial permutation), but guard against a
			// hostile oracle.
			break
		}
		entries = append(entries, Entry{Config: cfg, Demand: maxConn, Covered: covered})
		edges = skipped
		clear(rowUsed)
		clear(colUsed)
	}
	s := &Schedule{
		Planner:      "solstice",
		N:            n,
		K:            k,
		PreloadSlots: preloadSlots,
	}
	var kept []Entry
	kept, s.Residual = splitResidual(entries, d, k, opts)
	s.Covered = coveredDemand(d, s.Residual)
	s.Groups, s.DrainSlots, s.Reconfigs = packGroups(kept, k, preloadSlots, opts.ReconfigSlots)
	return s, nil
}
