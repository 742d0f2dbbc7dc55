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
	// 1 → bucket 0; 2 and 3 → 1; 100 → 6; 5000 → 12.
	want := map[int]uint64{0: 1, 1: 2, 6: 2, 12: 1}
	for i, c := range h.buckets {
		if c != want[i] {
			t.Fatalf("count=%d buckets=%v, want %v", h.Count(), h.buckets, want)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count=%d, want 6", h.Count())
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
	// Latencies 100 and 200 land in buckets 6 ([64,128)) and 7 ([128,256)).
	if h.Count() != 2 || h.buckets[6] != 1 || h.buckets[7] != 1 {
		t.Fatalf("histogram = count %d buckets %v, want one sample in each of buckets 6 and 7", h.Count(), h.buckets)
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
