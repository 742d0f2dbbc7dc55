// Bitmask helpers: a []uint64 as a set of small integers, bit i at word
// i/64. Row-occupancy masks, port masks and bitsets over connection ids use
// them.
package bitmat

import "math/bits"

// MaskTest reports whether bit i of the bitmask is set.
func MaskTest(m []uint64, i int) bool { return m[i>>6]&(1<<(uint(i)&63)) != 0 }

// MaskSet sets bit i of the bitmask.
func MaskSet(m []uint64, i int) { m[i>>6] |= 1 << (uint(i) & 63) }

// MaskClear clears bit i of the bitmask.
func MaskClear(m []uint64, i int) { m[i>>6] &^= 1 << (uint(i) & 63) }

// AppendMaskOnesFrom appends the set bit positions of an n-bit bitmask to
// dst in rotated order — positions [from, n) ascending, then [0, from)
// ascending — and returns the extended slice. Bits at positions >= n must be
// zero. It is the mask counterpart of Matrix.AppendRowOnesFrom, used by the
// scheduler's rotated row scans.
func AppendMaskOnesFrom(dst []int, m []uint64, n, from int) []int {
	return appendOnesFrom(dst, m, from)
}

// appendOnesFrom is the shared two-segment rotated word scan over a packed
// bit slice: positions [from, len*64) ascending, then [0, from) ascending.
func appendOnesFrom(dst []int, words []uint64, from int) []int {
	wFrom := from / wordBits
	lowMask := (uint64(1) << (uint(from) % wordBits)) - 1
	// Segment 1: positions [from, end).
	for w := wFrom; w < len(words); w++ {
		word := words[w]
		if w == wFrom {
			word &^= lowMask
		}
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, w*wordBits+b)
			word &= word - 1
		}
	}
	// Segment 2: positions [0, from).
	for w := 0; w <= wFrom && from > 0; w++ {
		word := words[w]
		if w == wFrom {
			word &= lowMask
		}
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, w*wordBits+b)
			word &= word - 1
		}
	}
	return dst
}
