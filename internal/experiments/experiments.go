// Package experiments defines the harnesses that regenerate every table and
// figure of the paper's evaluation (Section 5), plus the ablation studies
// DESIGN.md calls out. cmd/figures, the repository benchmarks and the shape
// tests all run through this package so the published configuration lives in
// exactly one place.
package experiments

import (
	"fmt"
	"strconv"

	"pmsnet/internal/circuit"
	"pmsnet/internal/metrics"
	"pmsnet/internal/netmodel"
	"pmsnet/internal/predictor"
	"pmsnet/internal/sim"
	"pmsnet/internal/tdm"
	"pmsnet/internal/traffic"
	"pmsnet/internal/wormhole"
)

// Published experiment configuration (paper §5).
const (
	// N is the simulated processor count.
	N = 128
	// Fig4K is Figure 4's multiplexing degree ("Preload and Dynamic TDM
	// utilize a multiplexing degree of four").
	Fig4K = 4
	// Fig4Timeout is the time-out predictor period used by Figure 4's
	// Dynamic TDM ("we will use in our experiments a simple time-out
	// predictor"): five TDM slots.
	Fig4Timeout sim.Time = 500
	// Fig5K is Figure 5's multiplexing degree ("a multiplexing degree of
	// three was used, with k slots preloaded").
	Fig5K = 3
	// Fig5Timeout is the hybrid experiment's predictor period.
	Fig5Timeout sim.Time = 250
	// Fig5Think is the compute time between a processor's blocking sends in
	// the determinism-mix workload.
	Fig5Think sim.Time = 150
	// Fig5Msgs is the number of messages per processor in Figure 5.
	Fig5Msgs = 40
	// Fig5Bytes is Figure 5's message size.
	Fig5Bytes = 64
	// MeshMsgs is the per-processor message count of the mesh workloads.
	MeshMsgs = 50
)

// Fig4Sizes are the message sizes of Figure 4 ("message sizes from 8 to
// 2048 bytes").
func Fig4Sizes() []int { return []int{8, 16, 32, 64, 128, 256, 512, 1024, 2048} }

// Fig5Determinism is Figure 5's x-axis (fraction of statically-known
// traffic, 50% to 100%).
func Fig5Determinism() []float64 { return []float64{0.5, 0.6, 0.7, 0.8, 0.85, 0.9, 0.95, 1.0} }

// Panel names Figure 4's four test patterns.
type Panel string

// Figure 4 panels.
const (
	Scatter     Panel = "scatter"
	RandomMesh  Panel = "random-mesh"
	OrderedMesh Panel = "ordered-mesh"
	TwoPhase    Panel = "two-phase"
)

// Panels lists Figure 4's panels in paper order.
func Panels() []Panel { return []Panel{Scatter, RandomMesh, OrderedMesh, TwoPhase} }

// Workload builds the panel's workload for one message size through the
// generator registry — panel names are registry family names, so Figure 4
// shares the CLIs' pattern vocabulary.
func (p Panel) Workload(n, bytes int, seed int64) (*traffic.Workload, error) {
	spec, err := traffic.ParseSpec(string(p))
	if err != nil {
		return nil, fmt.Errorf("experiments: unknown panel %q: %w", p, err)
	}
	if err := spec.Default("bytes", strconv.Itoa(bytes)); err != nil {
		return nil, err
	}
	if err := spec.Default("msgs", strconv.Itoa(MeshMsgs)); err != nil {
		return nil, err
	}
	// ~MeshMsgs messages per interior node (4 per round).
	if err := spec.Default("rounds", strconv.Itoa(MeshMsgs/4)); err != nil {
		return nil, err
	}
	return spec.Generate(n, seed)
}

// fig4Builders returns one constructor per Figure-4 network, in legend
// order: wormhole, circuit switching, dynamic TDM (K=4, time-out predictor)
// and preload TDM (K=4). Sweep points build only their own network, so
// nothing is shared between concurrently running points.
func fig4Builders(n int) []func() (netmodel.Network, error) {
	return []func() (netmodel.Network, error){
		func() (netmodel.Network, error) { return wormhole.New(wormhole.Config{N: n}) },
		func() (netmodel.Network, error) { return circuit.New(circuit.Config{N: n}) },
		func() (netmodel.Network, error) {
			return tdm.New(tdm.Config{
				N: n, K: Fig4K,
				NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(Fig4Timeout) },
			})
		},
		func() (netmodel.Network, error) { return tdm.New(tdm.Config{N: n, K: Fig4K, Mode: tdm.Preload}) },
	}
}

// Fig4Networks returns the four networks of Figure 4 in legend order:
// wormhole, circuit switching, dynamic TDM (K=4, time-out predictor) and
// preload TDM (K=4).
func Fig4Networks(n int) ([]netmodel.Network, error) {
	builders := fig4Builders(n)
	out := make([]netmodel.Network, 0, len(builders))
	for _, build := range builders {
		nw, err := build()
		if err != nil {
			return nil, err
		}
		out = append(out, nw)
	}
	return out, nil
}

// SizeRow holds one Figure 4 x-axis point: the efficiency of each network at
// one message size, in Fig4Networks order.
type SizeRow struct {
	Bytes   int
	Results []metrics.Result
}

// Fig4Panel regenerates one panel of Figure 4: for every message size, the
// efficiency of each network. It is the serial reference for
// Fig4PanelExec.
func Fig4Panel(p Panel, n int, sizes []int, seed int64) ([]SizeRow, error) {
	return Fig4PanelExec(Serial, p, n, sizes, seed)
}

// Fig4PanelExec regenerates one Figure 4 panel with the sweep's points —
// one (message size, network) pair each — fanned out through the executor.
// Every point rebuilds its own workload and network from (p, n, size, seed),
// so points share nothing and the assembled rows are bit-identical to a
// serial run at any parallelism.
func Fig4PanelExec(ex Exec, p Panel, n int, sizes []int, seed int64) ([]SizeRow, error) {
	if len(sizes) == 0 {
		sizes = Fig4Sizes()
	}
	netCount := len(fig4Builders(n))
	results, err := sweep(ex, len(sizes)*netCount, func(i int) (metrics.Result, error) {
		size, net := sizes[i/netCount], i%netCount
		wl, err := p.Workload(n, size, seed)
		if err != nil {
			return metrics.Result{}, err
		}
		nw, err := fig4Builders(n)[net]()
		if err != nil {
			return metrics.Result{}, err
		}
		res, err := nw.Run(wl)
		if err != nil {
			return metrics.Result{}, fmt.Errorf("experiments: %s on %s: %w", nw.Name(), wl.Name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]SizeRow, len(sizes))
	for si, size := range sizes {
		rows[si] = SizeRow{Bytes: size, Results: results[si*netCount : (si+1)*netCount]}
	}
	return rows, nil
}

// Fig4Table renders a panel's rows as the text table cmd/figures prints.
func Fig4Table(p Panel, rows []SizeRow) *metrics.Table {
	headers := []string{"bytes"}
	if len(rows) > 0 {
		for _, r := range rows[0].Results {
			headers = append(headers, r.Network)
		}
	}
	t := metrics.NewTable(fmt.Sprintf("Figure 4 (%s): link efficiency vs message size", p), headers...)
	for _, row := range rows {
		cells := []any{row.Bytes}
		for _, r := range row.Results {
			cells = append(cells, r.Efficiency)
		}
		t.AddRowf(cells...)
	}
	return t
}

// Fig5Row holds one Figure 5 x-axis point: the efficiency of the k=0,1,2
// hybrid schemes at one determinism level.
type Fig5Row struct {
	Determinism float64
	Results     []metrics.Result // index = preloaded slot count k
}

// Fig5Networks returns the hybrid networks of Figure 5: multiplexing degree
// three with k = 0, 1, 2 preloaded slots.
func Fig5Networks(n int) ([]netmodel.Network, error) {
	var out []netmodel.Network
	for k := 0; k <= 2; k++ {
		nw, err := tdm.New(tdm.Config{
			N: n, K: Fig5K, Mode: tdm.Hybrid, PreloadSlots: k,
			NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(Fig5Timeout) },
		})
		if err != nil {
			return nil, err
		}
		out = append(out, nw)
	}
	return out, nil
}

// Fig5 regenerates Figure 5: preload/dynamic slot splits against traffic
// determinism. It is the serial reference for Fig5Exec.
func Fig5(n int, dets []float64, seed int64) ([]Fig5Row, error) {
	return Fig5Exec(Serial, n, dets, seed)
}

// Fig5Exec regenerates Figure 5 with the sweep's points — one (determinism
// level, hybrid scheme) pair each — fanned out through the executor.
func Fig5Exec(ex Exec, n int, dets []float64, seed int64) ([]Fig5Row, error) {
	if len(dets) == 0 {
		dets = Fig5Determinism()
	}
	const netCount = 3 // hybrid k = 0, 1, 2
	results, err := sweep(ex, len(dets)*netCount, func(i int) (metrics.Result, error) {
		d, k := dets[i/netCount], i%netCount
		wl := traffic.Mix(n, Fig5Bytes, Fig5Msgs, d, Fig5Think, seed)
		nw, err := tdm.New(tdm.Config{
			N: n, K: Fig5K, Mode: tdm.Hybrid, PreloadSlots: k,
			NewPredictor: func() predictor.Predictor { return predictor.NewTimeout(Fig5Timeout) },
		})
		if err != nil {
			return metrics.Result{}, err
		}
		res, err := nw.Run(wl)
		if err != nil {
			return metrics.Result{}, fmt.Errorf("experiments: %s at d=%.2f: %w", nw.Name(), d, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Fig5Row, len(dets))
	for di, d := range dets {
		rows[di] = Fig5Row{Determinism: d, Results: results[di*netCount : (di+1)*netCount]}
	}
	return rows, nil
}

// Fig5Table renders Figure 5's rows.
func Fig5Table(rows []Fig5Row) *metrics.Table {
	headers := []string{"determinism"}
	if len(rows) > 0 {
		for _, r := range rows[0].Results {
			headers = append(headers, r.Network)
		}
	}
	t := metrics.NewTable("Figure 5: preload/dynamic slot split vs determinism (K=3)", headers...)
	for _, row := range rows {
		cells := []any{fmt.Sprintf("%.0f%%", row.Determinism*100)}
		for _, r := range row.Results {
			cells = append(cells, r.Efficiency)
		}
		t.AddRowf(cells...)
	}
	return t
}
