package plan

import (
	"fmt"
	"sort"

	"pmsnet/internal/multistage"
	"pmsnet/internal/topology"
)

// BvN plans by Birkhoff–von-Neumann-style decomposition, after Minaeva et
// al. ("Scalable and Efficient Configuration of Time-Division Multiplexed
// Resources"): multistage.DecomposeBvN splits the integer demand matrix
// exactly into weighted partial permutations, so the sum of the terms
// reproduces the input entry for entry. Each term becomes one planned
// configuration whose drain requirement is the term's weight; heavy terms
// come first and collect proportionally more register shares. Unlike
// solstice, a connection may appear in several configurations (one per
// weight layer), which lets BvN shape service rates more finely at the cost
// of more configurations.
type BvN struct{}

// Name implements Planner.
func (BvN) Name() string { return "bvn" }

// Plan implements Planner.
func (BvN) Plan(d *Demand, k, preloadSlots int, opts Options) (*Schedule, error) {
	if err := checkPlanArgs(d, k, preloadSlots); err != nil {
		return nil, err
	}
	terms, err := multistage.DecomposeBvN(d.N(), d.At)
	if err != nil {
		return nil, fmt.Errorf("plan: %w", err)
	}
	var entries []Entry
	for _, t := range terms {
		for _, cfg := range splitRealizable(t.Config, opts.CanRealize) {
			entries = append(entries, Entry{
				Config:  cfg,
				Demand:  t.Weight,
				Covered: t.Weight * int64(len(portMapConns(cfg))),
			})
		}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		return entries[i].Demand > entries[j].Demand
	})
	s := &Schedule{
		Planner:      "bvn",
		N:            d.N(),
		K:            k,
		PreloadSlots: preloadSlots,
	}
	// Spill trailing light terms to the dynamic path. A dropped term removes
	// only its own weight from each of its connections — earlier kept terms
	// may still cover the rest of the connection's demand.
	var kept []Entry
	kept, s.Residual = splitResidual(entries, d.N(), k, opts, func(e Entry, _, _ int) int64 { return e.Demand })
	s.Groups, s.DrainSlots, s.Reconfigs = packGroups(kept, k, preloadSlots, opts.ReconfigSlots)
	return s, nil
}

// splitRealizable returns cfg itself when the fabric can route it, or splits
// it into realizable sub-configurations by multistage.FirstFit when it
// cannot.
func splitRealizable(cfg []int32, canRealize func([]int32) bool) [][]int32 {
	if canRealize == nil || canRealize(cfg) {
		return [][]int32{cfg}
	}
	return multistage.FirstFit(len(cfg), portMapConns(cfg), canRealize)
}

// portMapConns lists a port map's connections in (Src, Dst) order.
func portMapConns(cfg []int32) []topology.Conn {
	var conns []topology.Conn
	for u, v := range cfg {
		if v >= 0 {
			conns = append(conns, topology.Conn{Src: u, Dst: int(v)})
		}
	}
	return conns
}
