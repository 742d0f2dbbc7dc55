package metrics

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"pmsnet/internal/link"
	"pmsnet/internal/sim"
)

// compute is ComputeEach over a slice of records.
func compute(network, workload string, n int, lm link.Model, recs []Record, stats NetStats) Result {
	return ComputeEach(network, workload, n, lm, len(recs), func(add func(Record)) {
		for _, r := range recs {
			add(r)
		}
	}, stats)
}

func TestComputeEmpty(t *testing.T) {
	r := compute("net", "wl", 4, link.Paper(), nil, NetStats{})
	if r.Messages != 0 || r.Efficiency != 0 || r.Makespan != 0 {
		t.Fatalf("empty result = %+v", r)
	}
}

func TestComputeSingleMessage(t *testing.T) {
	lm := link.Paper()
	recs := []Record{{Src: 0, Dst: 1, Bytes: 800, Created: 0, Delivered: 2000}}
	r := compute("net", "wl", 4, lm, recs, NetStats{})
	// 800 B at 6.4 Gb/s = 1000 ns ideal; makespan 2000 -> efficiency 0.5.
	if r.Ideal != 1000 {
		t.Fatalf("Ideal = %v, want 1000ns", r.Ideal)
	}
	if r.Efficiency != 0.5 {
		t.Fatalf("Efficiency = %v, want 0.5", r.Efficiency)
	}
	if r.Bytes != 800 || r.Messages != 1 {
		t.Fatal("counters wrong")
	}
	if r.LatencyMean != 2000 || r.LatencyMax != 2000 || r.LatencyP50 != 2000 {
		t.Fatalf("latencies = %v/%v/%v", r.LatencyMean, r.LatencyP50, r.LatencyMax)
	}
}

func TestBottleneckIsBusiestPort(t *testing.T) {
	lm := link.Paper()
	// Port 0 sends 2x800B; port 1 and 2 each receive 800B. Bottleneck is
	// port 0's output: 1600 B -> 2000 ns ideal.
	recs := []Record{
		{Src: 0, Dst: 1, Bytes: 800, Delivered: 4000},
		{Src: 0, Dst: 2, Bytes: 800, Delivered: 4000},
	}
	r := compute("n", "w", 4, lm, recs, NetStats{})
	if r.Ideal != 2000 {
		t.Fatalf("Ideal = %v, want 2000ns", r.Ideal)
	}
	if r.Efficiency != 0.5 {
		t.Fatalf("Efficiency = %v, want 0.5", r.Efficiency)
	}
	// Incast: two senders to one destination — bottleneck is the input port.
	recs = []Record{
		{Src: 0, Dst: 2, Bytes: 800, Delivered: 4000},
		{Src: 1, Dst: 2, Bytes: 800, Delivered: 4000},
	}
	r = compute("n", "w", 4, lm, recs, NetStats{})
	if r.Ideal != 2000 {
		t.Fatalf("incast Ideal = %v, want 2000ns", r.Ideal)
	}
}

func TestLatencyPercentiles(t *testing.T) {
	var recs []Record
	for i := 1; i <= 100; i++ {
		recs = append(recs, Record{Src: 0, Dst: 1, Bytes: 8, Created: 0, Delivered: sim.Time(i)})
	}
	r := compute("n", "w", 2, link.Paper(), recs, NetStats{})
	if r.LatencyP50 != 50 || r.LatencyP95 != 95 || r.LatencyMax != 100 {
		t.Fatalf("p50=%v p95=%v max=%v", r.LatencyP50, r.LatencyP95, r.LatencyMax)
	}
	if r.LatencyMean != 50 { // (1+...+100)/100 = 50.5 truncated
		t.Fatalf("mean = %v, want 50", r.LatencyMean)
	}
}

func TestComputePanicsOnCorruptRecords(t *testing.T) {
	for i, recs := range [][]Record{
		{{Src: 0, Dst: 1, Bytes: 8, Created: 10, Delivered: 5}},
		{{Src: 9, Dst: 1, Bytes: 8}},
		{{Src: 0, Dst: -1, Bytes: 8}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			compute("n", "w", 4, link.Paper(), recs, NetStats{})
		}()
	}
}

func TestHitRate(t *testing.T) {
	if (NetStats{}).HitRate() != 0 {
		t.Fatal("empty stats hit rate should be 0")
	}
	s := NetStats{Hits: 3, Misses: 1}
	if s.HitRate() != 0.75 {
		t.Fatalf("HitRate = %v, want 0.75", s.HitRate())
	}
}

func TestResultString(t *testing.T) {
	r := compute("tdm", "scatter", 4, link.Paper(),
		[]Record{{Src: 0, Dst: 1, Bytes: 8, Delivered: 100}}, NetStats{Hits: 1})
	s := r.String()
	if !strings.Contains(s, "tdm") || !strings.Contains(s, "scatter") {
		t.Fatalf("String = %q", s)
	}
}

func TestQuickEfficiencyBounded(t *testing.T) {
	// Efficiency can never exceed 1 when the makespan covers at least the
	// bottleneck serialization time (which any causal model guarantees);
	// here we synthesize records whose makespan is >= ideal by construction.
	f := func(sizes []uint16) bool {
		if len(sizes) == 0 {
			return true
		}
		lm := link.Paper()
		var recs []Record
		var total int
		for _, s := range sizes {
			b := int(s)%2000 + 1
			total += b
			recs = append(recs, Record{Src: 0, Dst: 1, Bytes: b})
		}
		mk := lm.SerializationTime(total)
		for i := range recs {
			recs[i].Delivered = mk
		}
		r := compute("n", "w", 2, lm, recs, NetStats{})
		return r.Efficiency > 0 && r.Efficiency <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "size", "wormhole", "tdm")
	tb.AddRowf(8, 0.5, 0.25)
	tb.AddRow("2048", "0.9", "0.8")
	if tb.Rows() != 2 {
		t.Fatalf("Rows = %d", tb.Rows())
	}
	out := tb.String()
	for _, want := range []string{"Figure X", "size", "wormhole", "0.500", "2048"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
}

func TestTablePanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewTable("t") },
		func() { NewTable("t", "a", "b").AddRow("only-one") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// percentile is the reference nearest-rank percentile of a sorted slice,
// the oracle for ComputeEach's in-place selection.
func percentile(sorted []sim.Time, p int) sim.Time {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := (p*len(sorted) + 99) / 100 // ceil(p/100 * len)
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// TestSelectNthMatchesSortedPercentile checks selection against
// slices.Sort + percentile: random latencies with many duplicates, one
// sample, all samples equal, already sorted and reversed inputs, at the
// percentiles ComputeEach and the reports use.
func TestSelectNthMatchesSortedPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var inputs [][]sim.Time
	for _, n := range []int{1, 2, 3, 7, 64, 100, 1000} {
		for _, spread := range []int64{1, 3, 50, 1 << 40} {
			a := make([]sim.Time, n)
			for i := range a {
				a[i] = sim.Time(rng.Int63n(spread))
			}
			inputs = append(inputs, a)
		}
		asc, desc := make([]sim.Time, n), make([]sim.Time, n)
		for i := range asc {
			asc[i], desc[i] = sim.Time(i), sim.Time(n-i)
		}
		inputs = append(inputs, asc, desc)
	}
	for _, in := range inputs {
		sorted := slices.Clone(in)
		slices.Sort(sorted)
		for _, p := range []int{1, 50, 95, 99} {
			a := slices.Clone(in)
			k := nearestRank(p, len(a)) - 1
			if got, want := selectNth(a, k), percentile(sorted, p); got != want {
				t.Fatalf("n=%d p=%d: selectNth = %v, sorted percentile = %v", len(in), p, got, want)
			}
			for i := range a {
				if (i < k && a[i] > a[k]) || (i > k && a[i] < a[k]) {
					t.Fatalf("n=%d p=%d: a[%d]=%v on the wrong side of a[%d]=%v", len(in), p, i, a[i], k, a[k])
				}
			}
			slices.Sort(a)
			if !slices.Equal(a, sorted) {
				t.Fatalf("n=%d p=%d: selection lost or duplicated a sample", len(in), p)
			}
		}
	}
}

// TestComputeMatchesSortReference checks ComputeEach's selected p50/p95, its
// scanned max and its folded Jain index against the sort-based computation
// on random records.
func TestComputeMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(16)
		recs := make([]Record, 1+rng.Intn(300))
		for i := range recs {
			c := sim.Time(rng.Int63n(1000))
			recs[i] = Record{Src: rng.Intn(n), Dst: rng.Intn(n), Bytes: 8, Created: c,
				Delivered: c + sim.Time(rng.Int63n(1+int64(trial)*10))}
		}
		lat := make([]sim.Time, len(recs))
		sums, counts := make([]int64, n), make([]int64, n)
		for i, r := range recs {
			lat[i] = r.Delivered - r.Created
			sums[r.Src] += int64(lat[i])
			counts[r.Src]++
		}
		slices.Sort(lat)
		var sum, sumSq float64
		sources := 0
		for p := range counts {
			if counts[p] > 0 {
				mean := float64(sums[p]) / float64(counts[p])
				sum, sumSq, sources = sum+mean, sumSq+mean*mean, sources+1
			}
		}
		jain := 1.0
		if sumSq != 0 {
			jain = sum * sum / (float64(sources) * sumSq)
		}
		r := compute("n", "w", n, link.Paper(), recs, NetStats{})
		if r.LatencyP50 != percentile(lat, 50) || r.LatencyP95 != percentile(lat, 95) ||
			r.LatencyMax != lat[len(lat)-1] || r.FairnessJain != jain {
			t.Fatalf("trial %d: p50=%v p95=%v max=%v jain=%v, want %v %v %v %v", trial,
				r.LatencyP50, r.LatencyP95, r.LatencyMax, r.FairnessJain,
				percentile(lat, 50), percentile(lat, 95), lat[len(lat)-1], jain)
		}
	}
}
