package sim

import "math/rand"

// NewRNG returns a deterministic random source for a (run seed, stream)
// pair. Each model component draws from its own stream so that adding a
// random draw in one component does not perturb the sequence seen by
// another — the classic "random stream per entity" discipline for
// reproducible discrete-event simulation.
//
// The stream is exactly rand.New(rand.NewSource(mix(seed, stream))): the
// source is lfgSource, the standard library's generator with a faster
// seeding step.
func NewRNG(seed int64, stream uint64) *rand.Rand {
	src := new(lfgSource)
	src.Seed(mix(seed, stream))
	return rand.New(src)
}

// mix combines a seed and a stream id with the SplitMix64 finalizer so that
// adjacent (seed, stream) pairs map to well-separated generator states.
func mix(seed int64, stream uint64) int64 {
	z := uint64(seed) + 0x9E3779B97F4A7C15*(stream+1)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

const (
	rngLen   = 607 // lag of the additive lagged Fibonacci generator
	rngTap   = 273 // its tap
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1 // the Mersenne prime modulus of the seeding LCG
	lcgMul   = 48271     // the seeding LCG's multiplier
	lcgSkip  = 20        // LCG steps discarded before the first register word
)

// lfgSource is math/rand's rngSource re-implemented draw for draw: the same
// register, tap and feed, the same Uint64/Int63 step, and the same Seed
// mapping. Only seeding differs in how it computes, not in what.
//
// The standard library seeds by stepping the Lehmer LCG x ← 48271·x mod
// (2³¹−1) 1,841 times with a division-based (Schrage) multiply, each step
// depending on the last. The value after k steps is seed·48271ᵏ mod (2³¹−1),
// so Seed multiplies the seed by a precomputed power instead and reduces by
// folding the Mersenne modulus: no division and no serial chain.
type lfgSource struct {
	tap  int
	feed int
	vec  [rngLen]int64
}

// seedPow[k] = 48271^(lcgSkip+1+k) mod (2³¹−1): the multiplier of the LCG
// value that feeds register word k/3, part k%3.
var seedPow [3 * rngLen]uint32

func init() {
	x := uint64(1)
	for i := 0; i < lcgSkip; i++ {
		x = mulMod31(x, lcgMul)
	}
	for k := range seedPow {
		x = mulMod31(x, lcgMul)
		seedPow[k] = uint32(x)
	}
}

// mulMod31 returns a·b mod (2³¹−1) for a, b < 2³¹. Since 2³¹ ≡ 1, the
// product's high bits fold onto its low 31 bits.
func mulMod31(a, b uint64) uint64 {
	x := a * b
	x = x&int32max + x>>31
	x = x&int32max + x>>31
	if x >= int32max {
		x -= int32max
	}
	return x
}

// Seed initializes the generator exactly as math/rand's Seed does.
func (r *lfgSource) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap

	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s := uint64(seed)
	for i := range r.vec {
		p := seedPow[3*i : 3*i+3 : 3*i+3]
		u := int64(mulMod31(s, uint64(p[0]))) << 40
		u ^= int64(mulMod31(s, uint64(p[1]))) << 20
		u ^= int64(mulMod31(s, uint64(p[2])))
		r.vec[i] = u ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer as an int64.
func (r *lfgSource) Int63() int64 {
	return int64(r.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit value as a uint64.
func (r *lfgSource) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}
