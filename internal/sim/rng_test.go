package sim

import (
	"math"
	"math/rand"
	"testing"
)

// rngEdgeSeeds are the seeds where math/rand's Seed mapping has its cases:
// zero (replaced by a fixed seed), multiples of the 2³¹−1 modulus (reduce
// to zero), negatives (wrapped into range) and the int64 extremes.
var rngEdgeSeeds = []int64{
	0, 1, -1, 2, 89482311,
	int32max, 2 * int32max, -int32max, -3 * int32max, int32max - 1, int32max + 1,
	1 << 31, 1 << 32, -(1 << 40),
	math.MaxInt32, math.MinInt32,
	math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
	(math.MaxInt64 / int32max) * int32max,
}

// compareDraws draws n values of every kind from got and want, in the same
// order, and reports the first mismatch.
func compareDraws(t testing.TB, label string, got, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			t.Fatalf("%s: Int63 draw %d = %d, math/rand gives %d", label, i, g, w)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("%s: Uint64 draw %d = %d, math/rand gives %d", label, i, g, w)
		}
		bound := 1 + i%1000
		if g, w := got.Intn(bound), want.Intn(bound); g != w {
			t.Fatalf("%s: Intn(%d) draw %d = %d, math/rand gives %d", label, bound, i, g, w)
		}
		if g, w := got.Float64(), want.Float64(); g != w {
			t.Fatalf("%s: Float64 draw %d = %v, math/rand gives %v", label, i, g, w)
		}
		if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
			t.Fatalf("%s: ExpFloat64 draw %d = %v, math/rand gives %v", label, i, g, w)
		}
	}
}

// TestNewRNGMatchesMathRand pins NewRNG to the standard library's generator
// draw for draw: through NewRNG on (seed, stream) pairs, and through the
// source directly on the edge seeds that mix would never produce on purpose.
func TestNewRNGMatchesMathRand(t *testing.T) {
	const draws = 10000
	for _, seed := range []int64{1, 2, 42, 1000, -7, math.MaxInt64} {
		for _, stream := range []uint64{0, 1, 63, 1 << 40} {
			got := NewRNG(seed, stream)
			want := rand.New(rand.NewSource(mix(seed, stream)))
			compareDraws(t, "NewRNG", got, want, draws)
		}
	}
	for _, seed := range rngEdgeSeeds {
		src := new(lfgSource)
		src.Seed(seed)
		compareDraws(t, "seed", rand.New(src), rand.New(rand.NewSource(seed)), draws)
	}
}

// TestRNGReseed checks that Rand.Seed on a NewRNG stream restarts it exactly
// as it restarts the standard library's.
func TestRNGReseed(t *testing.T) {
	got := NewRNG(5, 9)
	want := rand.New(rand.NewSource(mix(5, 9)))
	compareDraws(t, "before reseed", got, want, 100)
	for _, seed := range rngEdgeSeeds {
		got.Seed(seed)
		want.Seed(seed)
		compareDraws(t, "after reseed", got, want, rngLen)
	}
}

// FuzzNewRNGParity compares NewRNG with math/rand on arbitrary (seed,
// stream) pairs and on the raw seed, over more than one full turn of the
// 607-word register.
func FuzzNewRNGParity(f *testing.F) {
	for _, seed := range rngEdgeSeeds {
		f.Add(seed, uint64(0))
	}
	f.Add(int64(7), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, seed int64, stream uint64) {
		compareDraws(t, "NewRNG", NewRNG(seed, stream), rand.New(rand.NewSource(mix(seed, stream))), 2*rngLen)
		src := new(lfgSource)
		src.Seed(seed)
		compareDraws(t, "seed", rand.New(src), rand.New(rand.NewSource(seed)), 2*rngLen)
	})
}

var sinkRNG *rand.Rand

// BenchmarkNewRNG measures building one seeded stream, the per-processor
// cost of every registry workload generator.
func BenchmarkNewRNG(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkRNG = NewRNG(int64(i), uint64(i))
	}
}
