package experiments

import (
	"fmt"
	"time"

	"pmsnet/internal/core"
	"pmsnet/internal/metrics"
	"pmsnet/internal/sim"
	"pmsnet/internal/topology"
)

// Table3Sizes are the system sizes of the paper's Table 3.
func Table3Sizes() []int { return []int{4, 8, 16, 32, 64, 128} }

// Table3Row holds one Table 3 entry: the published FPGA latency of the
// scheduling circuit, the derived conservative ASIC figure the simulations
// use, and — as a reproduction sanity check — the wall-clock time of one
// bit-exact software pass of this repository's scheduler model.
type Table3Row struct {
	N          int
	FPGANs     sim.Time
	ASICNs     sim.Time
	SoftwareNs float64
}

// Table3 regenerates the scheduler-latency table. The software column
// measures this model's Pass on a random single-request-per-input matrix,
// averaged over iters iterations (iters <= 0 selects a default).
func Table3(iters int) []Table3Row {
	if iters <= 0 {
		iters = 2000
	}
	var rows []Table3Row
	for _, n := range Table3Sizes() {
		rng := sim.NewRNG(3, uint64(n))
		dst := make([]int, n)
		for i := range dst {
			dst[i] = rng.Intn(n)
		}
		// The run's connection table holds the requested connections.
		conns := topology.NewConnTable(n, func(src int, add func(int)) {
			if dst[src] != src {
				add(dst[src])
			}
		})
		s := core.MustScheduler(core.Params{N: n, K: Fig4K, RotatePriority: true, Conns: conns})
		req := topology.NewIDSet(conns)
		for src := 0; src < n; src++ {
			if lo, hi := conns.Row(src); lo < hi {
				req.Add(src, lo)
			}
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			s.PassSparse(req)
		}
		elapsed := time.Since(start)
		rows = append(rows, Table3Row{
			N:          n,
			FPGANs:     core.FPGALatency(n),
			ASICNs:     core.ASICLatency(n),
			SoftwareNs: float64(elapsed.Nanoseconds()) / float64(iters),
		})
	}
	return rows
}

// Table3Table renders the rows.
func Table3Table(rows []Table3Row) *metrics.Table {
	t := metrics.NewTable("Table 3: scheduling-circuit latency vs system size",
		"N", "FPGA (paper, ns)", "ASIC (simulated, ns)", "software pass (ns)")
	for _, r := range rows {
		t.AddRowf(r.N, int64(r.FPGANs), int64(r.ASICNs), fmt.Sprintf("%.0f", r.SoftwareNs))
	}
	return t
}
