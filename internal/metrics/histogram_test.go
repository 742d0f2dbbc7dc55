package metrics

import (
	"strings"
	"testing"

	"pmsnet/internal/link"
	"pmsnet/internal/sim"
)

func TestHistogramBucketsAndExtremes(t *testing.T) {
	h := NewHistogram()
	if h.String() != "(no samples)\n" {
		t.Fatal("empty rendering wrong")
	}
	for _, v := range []int64{1, 2, 3, 100, 100, 5000} {
		h.Add(sim.Time(v))
	}
	if h.Count() != 6 || h.min != 1 || h.max != 5000 {
		t.Fatalf("count=%d min=%v max=%v", h.Count(), h.min, h.max)
	}
	out := h.String()
	if !strings.Contains(out, "#") {
		t.Fatalf("no bars rendered:\n%s", out)
	}
	if len(strings.Split(strings.TrimRight(out, "\n"), "\n")) < 3 {
		t.Fatalf("expected several buckets:\n%s", out)
	}
}

func TestHistogramNegativePanics(t *testing.T) {
	h := NewHistogram()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.Add(-1)
}

func TestLatencyHistogramFromRecords(t *testing.T) {
	recs := []Record{
		{Src: 0, Dst: 1, Bytes: 8, Created: 0, Delivered: 100},
		{Src: 0, Dst: 1, Bytes: 8, Created: 50, Delivered: 250},
	}
	h := compute("n", "w", 2, link.Paper(), recs, NetStats{}).Latencies
	if h.Count() != 2 || h.min != 100 || h.max != 200 {
		t.Fatalf("histogram = count %d min %v max %v", h.Count(), h.min, h.max)
	}
}

// TestHistogramBucketMatchesShiftLoop checks Add's bits.Len64 bucket against
// the halving loop it replaced, at every power-of-two edge and past the last
// bucket.
func TestHistogramBucketMatchesShiftLoop(t *testing.T) {
	for i := 0; i < 63; i++ {
		for _, l := range []int64{1<<i - 1, 1 << i, 1<<i + 1} {
			want := 0
			for v := l; v > 1; v >>= 1 {
				want++
			}
			if want > 39 {
				want = 39
			}
			h := NewHistogram()
			h.Add(sim.Time(l))
			if h.buckets[want] != 1 {
				t.Fatalf("latency %d not in bucket %d: %v", l, want, h.buckets)
			}
		}
	}
}
