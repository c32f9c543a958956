package mds

import (
	"math"
	"sort"
)

// radixMinPairs is the pair count at and above which the rank image is
// built by radixSortInto instead of copy + sort.Float64s. Radix sorting
// pays a fixed cost (eight 256-bucket histograms, up to eight scatter
// passes) that pdqsort's O(m log m) comparisons only outgrow between
// 780 pairs (pdqsort 15 µs, radix 20 µs) and 1,035 pairs (pdqsort
// 33 µs, radix 20 µs) in BenchmarkRankImageSort on a 2 vCPU Xeon,
// linux/amd64, go1.24. At 19,900 pairs radix takes 0.52 ms against
// pdqsort's 2.2 ms. The paper's 15-observation maps (105 pairs) stay
// on pdqsort.
const radixMinPairs = 1024

// maxOrderedBits is the largest float64 bit pattern whose unsigned
// integer order is its numeric order: +Inf. Anything above it is a NaN
// or carries the sign bit.
const maxOrderedBits = 0x7FF0000000000000

// sortRankImage writes the ascending sort of dist into disp: the k-th
// smallest distance becomes the k-th disparity in dissimilarity order.
// tmp is scratch of len(dist) and is only touched at or above
// radixMinPairs. disp is bit-identical to copy + sort.Float64s.
func sortRankImage(disp, dist, tmp []float64) {
	if len(dist) < radixMinPairs {
		copy(disp, dist)
		sort.Float64s(disp)
		return
	}
	radixSortInto(disp, dist, tmp)
}

// radixSortInto writes src in ascending order into dst with an LSD radix
// sort over the float64 bits; src is left untouched and tmp (len(src))
// is the ping-pong buffer. For +0, positive finite values and +Inf the
// unsigned bit order is the numeric order, so the output is the unique
// sorted arrangement of the multiset — bit-identical to sort.Float64s.
// A NaN or sign-bit key (never produced by a square root of a sum of
// squares) falls back to sort.Float64s so that identity holds for any
// input. Byte positions on which every key agrees are skipped.
func radixSortInto(dst, src, tmp []float64) {
	m := len(src)
	var hist [8][256]int
	for _, v := range src {
		k := math.Float64bits(v)
		if k > maxOrderedBits {
			copy(dst, src)
			sort.Float64s(dst)
			return
		}
		hist[0][byte(k)]++
		hist[1][byte(k>>8)]++
		hist[2][byte(k>>16)]++
		hist[3][byte(k>>24)]++
		hist[4][byte(k>>32)]++
		hist[5][byte(k>>40)]++
		hist[6][byte(k>>48)]++
		hist[7][byte(k>>56)]++
	}
	var passes [8]uint
	np := 0
	if m > 0 {
		first := math.Float64bits(src[0])
		for p := range hist {
			if hist[p][byte(first>>(8*p))] != m {
				passes[np] = uint(8 * p)
				np++
			}
		}
	}
	if np == 0 {
		copy(dst, src)
		return
	}
	in := src
	for i := 0; i < np; i++ {
		// Alternate the output buffer so the last pass lands in dst.
		out := dst
		if (np-1-i)%2 == 1 {
			out = tmp
		}
		shift := passes[i]
		h := &hist[shift/8]
		off := 0
		for b, c := range h {
			h[b] = off
			off += c
		}
		for _, v := range in {
			b := byte(math.Float64bits(v) >> shift)
			out[h[b]] = v
			h[b]++
		}
		in = out
	}
}
