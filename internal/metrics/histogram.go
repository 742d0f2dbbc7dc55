package metrics

import (
	"fmt"
	"math/bits"
	"strings"

	"pmsnet/internal/sim"
)

// Histogram is a logarithmic latency histogram: bucket i counts latencies in
// [2^i, 2^(i+1)) nanoseconds, with bucket 0 also holding sub-nanosecond
// values. It renders as an ASCII bar chart for pmsim and debugging output.
type Histogram struct {
	buckets []uint64
	count   uint64
	min     sim.Time
	max     sim.Time
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{buckets: make([]uint64, 40)}
}

// Add records one latency sample. Negative latencies panic: they indicate a
// causality bug upstream.
func (h *Histogram) Add(l sim.Time) {
	if l < 0 {
		panic(fmt.Sprintf("metrics: negative latency %v", l))
	}
	b := bits.Len64(uint64(l) >> 1) // floor(log2 l), and 0 for l < 2
	if b >= len(h.buckets) {
		b = len(h.buckets) - 1
	}
	h.buckets[b]++
	if h.count == 0 || l < h.min {
		h.min = l
	}
	if l > h.max {
		h.max = l
	}
	h.count++
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// String renders the non-empty bucket range as aligned bars.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "(no samples)\n"
	}
	lo, hi := -1, 0
	var peak uint64
	for i, c := range h.buckets {
		if c > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
			if c > peak {
				peak = c
			}
		}
	}
	var sb strings.Builder
	for i := lo; i <= hi; i++ {
		c := h.buckets[i]
		width := 0
		if peak > 0 {
			width = int(c * 40 / peak)
		}
		if c > 0 && width == 0 {
			width = 1
		}
		fmt.Fprintf(&sb, "%10v..%-10v %8d %s\n",
			sim.Time(1)<<uint(i), sim.Time(1)<<uint(i+1), c, strings.Repeat("#", width))
	}
	return sb.String()
}
