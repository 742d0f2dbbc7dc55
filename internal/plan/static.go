package plan

import (
	"fmt"

	"pmsnet/internal/topology"
)

// Static reproduces the repo's hand-written preload path: the demand's
// support is decomposed (exact edge coloring by default, or the fabric
// backend's Decompose via Options.Decompose), every configuration gets
// exactly one slot register, and groups are formed by chunking the
// decomposition in order. Planned this way, the tdm preloader pins exactly
// the groups it would have built without a planner — the A/B baseline the
// optimizing planners are measured against.
type Static struct{}

// Name implements Planner.
func (Static) Name() string { return "static" }

// Plan implements Planner.
func (Static) Plan(d *Demand, k, preloadSlots int, opts Options) (*Schedule, error) {
	if err := checkPlanArgs(d, k, preloadSlots); err != nil {
		return nil, err
	}
	decompose := opts.Decompose
	if decompose == nil {
		decompose = func(ws *topology.WorkingSet) ([][]int32, error) {
			return topology.Decompose(ws), nil
		}
	}
	configs, err := decompose(d.WorkingSet())
	if err != nil {
		return nil, fmt.Errorf("plan: static decomposition failed: %w", err)
	}
	s := &Schedule{
		Planner:      "static",
		N:            d.N(),
		K:            k,
		PreloadSlots: preloadSlots,
		Residual:     NewDemand(d.N()),
	}
	for start := 0; start < len(configs); start += preloadSlots {
		end := start + preloadSlots
		if end > len(configs) {
			end = len(configs)
		}
		var group []Entry
		for _, cfg := range configs[start:end] {
			e := Entry{Config: cfg, Share: 1}
			for u, v := range cfg {
				if v >= 0 {
					w := d.At(u, int(v))
					e.Covered += w
					e.Demand = max(e.Demand, w)
				}
			}
			group = append(group, e)
		}
		s.Groups = append(s.Groups, group)
	}
	// Cost the hand-written schedule under the same model the optimizing
	// planners use, so DrainSlots values are comparable.
	s.Reconfigs = len(s.Groups)
	for _, g := range s.Groups {
		var cycles int64 = 1
		for _, e := range g {
			if e.Demand > cycles {
				cycles = e.Demand
			}
		}
		s.DrainSlots += float64(cycles)*float64(k) + opts.ReconfigSlots
	}
	return s, nil
}
