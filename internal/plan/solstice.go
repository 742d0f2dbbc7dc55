package plan

import (
	"math/bits"
	"slices"

	"pmsnet/internal/bitmat"
	"pmsnet/internal/topology"
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
// The positive-demand edges are grouped once into weight classes, heaviest
// first (weightClasses). Each round walks the classes in order and, in each,
// every row not yet matched: the row takes its lowest free column that
// CanRealize accepts, found a bitset word at a time. That visits the edges
// in exactly the order of the heaviest-first, (src, dst)-sorted edge list,
// so a round is the greedy matching over that list. It costs one visit per
// live class row and column word instead of one per surviving edge: a class
// row is one word at N ≤ 64, while an edge list row holds up to N−1 edges.
// A covered connection's demand drops straight to zero and every other
// weight is untouched, so the classes need no resorting between rounds.
func (Solstice) Plan(d *Demand, k, preloadSlots int, opts Options) (*Schedule, error) {
	if err := checkPlanArgs(d, k, preloadSlots); err != nil {
		return nil, err
	}
	n := d.N()
	wc := newWeightClasses(d)
	var entries []Entry
	for len(wc.live) > 0 {
		cfg := topology.NewPortMap(n)
		maxConn, covered := wc.match(cfg, opts.CanRealize)
		if covered == 0 {
			// Nothing realizable — should not happen (a single edge is
			// always a valid partial permutation), but guard against a
			// hostile oracle.
			break
		}
		entries = append(entries, Entry{Config: cfg, Demand: maxConn, Covered: covered})
	}
	s := &Schedule{
		Planner:      "solstice",
		N:            n,
		K:            k,
		PreloadSlots: preloadSlots,
	}
	var kept []Entry
	kept, s.Residual = splitResidual(entries, n, k, opts, func(_ Entry, u, v int) int64 { return d.At(u, v) })
	s.Groups, s.DrainSlots, s.Reconfigs = packGroups(kept, k, preloadSlots, opts.ReconfigSlots)
	return s, nil
}

// weightClasses holds a demand's uncovered positive edges grouped by weight.
// Class c holds the edges of weight weight[c], heaviest class first; its
// rows with an uncovered edge are rows[rowLo[c]:rowHi[c]] in ascending
// order, and a row keeps its columns as the nonzero words of a bitset.
// Every array has at most one slot per edge, class or port, so the storage
// is O(connections + N) whatever the number of classes.
type weightClasses struct {
	weight       []int64
	rowLo, rowHi []int32
	// live lists the classes with an uncovered edge, heaviest first.
	live  []int32
	rows  []classRow
	cells []cell
	// rowUsed and colUsed are bitsets of the rows and columns matched in
	// the current round.
	rowUsed, colUsed []uint64
}

// classRow is one row of a weight class: source port u, whose uncovered
// columns are cells[lo:hi]. The row is covered once lo == hi; while it is
// not, cells[lo] is nonzero.
type classRow struct {
	u, lo, hi int32
}

// cell holds one word of a class row's column bitset: the uncovered columns
// among 64·word ... 64·word+63.
type cell struct {
	bits uint64
	word int32
}

// newWeightClasses groups d's positive edges into weight classes. It walks
// the demand in (src, dst) order, so each class's rows, and each row's
// cells, come out in that order: a bucket pass in place of a sort.
func newWeightClasses(d *Demand) weightClasses {
	n := d.N()
	// The distinct weights are the sorted weights of the runs of equal
	// entries in (src, dst) order, which are few when the classes are large.
	runs, last := 0, int64(0)
	for _, w := range d.w {
		if w != last {
			runs, last = runs+1, w
		}
	}
	weight := make([]int64, 0, runs)
	last = 0
	for _, w := range d.w {
		if w != last {
			weight, last = append(weight, w), w
		}
	}
	slices.Sort(weight)
	weight = slices.Compact(weight)
	nc := len(weight)
	// classOf maps a weight to its class, heaviest first, by a binary
	// search over the ascending weights that a run of equal weights skips.
	lastW, lastC := int64(0), 0
	classOf := func(w int64) int {
		if w != lastW {
			pos, _ := slices.BinarySearch(weight, w)
			lastW, lastC = w, nc-1-pos
		}
		return lastC
	}

	pool := make([]int32, 6*nc)
	rowLo, rowHi, live := pool[:nc], pool[nc:2*nc], pool[2*nc:3*nc]
	next, lastU, lastWord := pool[3*nc:4*nc], pool[4*nc:5*nc], pool[5*nc:]
	// Count each class's rows into rowHi and its cells into next.
	for c := range lastU {
		lastU[c] = -1
	}
	for i, k := range d.keys {
		e := topology.ConnOfKey(k)
		c, u, word := classOf(d.w[i]), int32(e.Src), int32(e.Dst/64)
		if lastU[c] != u {
			lastU[c], lastWord[c] = u, -1
			rowHi[c]++
		}
		if lastWord[c] != word {
			lastWord[c] = word
			next[c]++
		}
	}
	// Lay the classes out heaviest first; rowHi[c] and next[c] become the
	// cursors of class c's next row and cell.
	nr, nw := int32(0), int32(0)
	for c := range live {
		rows, cells := rowHi[c], next[c]
		rowLo[c], rowHi[c], next[c], lastU[c] = nr, nr, nw, -1
		live[c] = int32(c)
		nr, nw = nr+rows, nw+cells
	}
	words := (n + 63) / 64
	used := make([]uint64, 2*words)
	wc := weightClasses{
		live:    live,
		rowLo:   rowLo,
		rowHi:   rowHi,
		rows:    make([]classRow, nr),
		cells:   make([]cell, nw),
		rowUsed: used[:words:words],
		colUsed: used[words:],
	}
	for i, k := range d.keys {
		e := topology.ConnOfKey(k)
		c, u, v := classOf(d.w[i]), int32(e.Src), e.Dst
		if lastU[c] != u {
			lastU[c] = u
			wc.rows[rowHi[c]] = classRow{u: u, lo: next[c], hi: next[c]}
			rowHi[c]++
		}
		r := &wc.rows[rowHi[c]-1]
		if word := int32(v / 64); r.lo == r.hi || wc.cells[r.hi-1].word != word {
			wc.cells[r.hi].word = word
			r.hi++
			next[c]++
		}
		wc.cells[r.hi-1].bits |= 1 << (v % 64)
	}
	slices.Reverse(weight)
	wc.weight = weight
	return wc
}

// match runs one greedy round into cfg: each live class in turn, heaviest
// first, matches each of its rows not yet matched this round to the row's
// lowest free column that canRealize accepts. It removes the matched edges,
// drops rows and classes left without one, and returns the heaviest matched
// weight and the summed weights.
func (wc *weightClasses) match(cfg []int32, canRealize func([]int32) bool) (maxConn, covered int64) {
	clear(wc.rowUsed)
	clear(wc.colUsed)
	live := wc.live[:0]
	for _, c := range wc.live {
		w := wc.weight[c]
		rows := wc.rows[wc.rowLo[c]:wc.rowHi[c]]
		kept := rows[:0]
		for _, r := range rows {
			if !bitmat.MaskTest(wc.rowUsed, int(r.u)) && wc.take(&r, cfg, canRealize) {
				bitmat.MaskSet(wc.rowUsed, int(r.u))
				covered += w
				maxConn = max(maxConn, w)
			}
			if r.lo < r.hi {
				kept = append(kept, r)
			}
		}
		wc.rowHi[c] = wc.rowLo[c] + int32(len(kept))
		if len(kept) > 0 {
			live = append(live, c)
		}
	}
	wc.live = live
	return maxConn, covered
}

// take matches row r to its lowest column that is free this round and that
// canRealize accepts, setting it in cfg and removing it from the row, and
// reports whether it found one. A refused column stays in the row.
func (wc *weightClasses) take(r *classRow, cfg []int32, canRealize func([]int32) bool) bool {
	for i := r.lo; i < r.hi; i++ {
		word := wc.cells[i].word
		for free := wc.cells[i].bits &^ wc.colUsed[word]; free != 0; free &= free - 1 {
			cfg[r.u] = word*64 + int32(bits.TrailingZeros64(free))
			if canRealize != nil && !canRealize(cfg) {
				cfg[r.u] = -1
				continue
			}
			bit := free & -free
			wc.colUsed[word] |= bit
			wc.cells[i].bits &^= bit
			for r.lo < r.hi && wc.cells[r.lo].bits == 0 {
				r.lo++
			}
			return true
		}
	}
	return false
}
