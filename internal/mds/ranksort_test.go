package mds

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"coplot/internal/rng"
)

// sortOracle is the reference the rank-image kernel must reproduce
// bit for bit.
func sortOracle(src []float64) []float64 {
	out := append([]float64(nil), src...)
	sort.Float64s(out)
	return out
}

// checkRankSort runs both kernel entry points on src and compares every
// output bit against the sort.Float64s oracle; src must come back
// untouched.
func checkRankSort(t *testing.T, src []float64, label string) {
	t.Helper()
	orig := append([]float64(nil), src...)
	want := sortOracle(src)
	for _, kernel := range []struct {
		name string
		fn   func(dst, src, tmp []float64)
	}{{"radix", radixSortInto}, {"rank", sortRankImage}} {
		dst := make([]float64, len(src))
		tmp := make([]float64, len(src))
		for i := range dst {
			dst[i], tmp[i] = -1, -1 // stale scratch must not leak through
		}
		kernel.fn(dst, src, tmp)
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s/%s: [%d] = %v (%#x), want %v (%#x)", label, kernel.name,
					i, dst[i], math.Float64bits(dst[i]), want[i], math.Float64bits(want[i]))
			}
		}
		for i := range orig {
			if math.Float64bits(src[i]) != math.Float64bits(orig[i]) {
				t.Fatalf("%s/%s: input[%d] modified", label, kernel.name, i)
			}
		}
	}
}

// pairDistances returns the m = n(n−1)/2 distances of n random points in
// dims dimensions, computed like the SMACOF distance loop.
func pairDistances(n, dims int, seed uint64) []float64 {
	r := rng.New(seed)
	x := make([]float64, n*dims)
	for i := range x {
		x[i] = r.Norm()
	}
	out := make([]float64, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s := 0.0
			for c := 0; c < dims; c++ {
				df := x[i*dims+c] - x[j*dims+c]
				s += df * df
			}
			out = append(out, math.Sqrt(s))
		}
	}
	return out
}

// firstDistances returns the first m realistic pair distances.
func firstDistances(m int) []float64 {
	n := 2
	for n*(n-1)/2 < m {
		n++
	}
	return pairDistances(n, 2, 11)[:m]
}

func TestRankImageSortMatchesSortFloat64s(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	dupes := make([]float64, 3000)
	r := rng.New(5)
	for i := range dupes {
		// Few distinct values spread from subnormal to near-overflow.
		e := int(r.Uint64()%8)*250 - 1070
		dupes[i] = math.Ldexp(1, e) * float64(1+r.Uint64()%3)
	}
	equal := make([]float64, 2*radixMinPairs)
	for i := range equal {
		equal[i] = 2.5
	}
	zerosSub := make([]float64, radixMinPairs+7)
	for i := range zerosSub {
		switch i % 3 {
		case 0:
			zerosSub[i] = 0
		case 1:
			zerosSub[i] = sub * float64(i)
		default:
			zerosSub[i] = math.Float64frombits(uint64(i) << 20) // subnormal, high mantissa bits
		}
	}
	cases := []struct {
		name string
		in   []float64
	}{
		{"empty", nil},
		{"single", []float64{3.25}},
		{"all-equal", equal},
		{"zero-subnormal", zerosSub},
		{"dupes-wide-exponents", dupes},
		{"inf", append(firstDistances(radixMinPairs), math.Inf(1), 0, math.MaxFloat64)},
		{"cutoff-1", firstDistances(radixMinPairs - 1)},
		{"cutoff", firstDistances(radixMinPairs)},
		{"cutoff+1", firstDistances(radixMinPairs + 1)},
		{"m=19900", pairDistances(200, 2, 3)},
	}
	for _, c := range cases {
		checkRankSort(t, c.in, c.name)
	}
}

// Keys outside the ordered range — NaN, −0, negatives — never come out
// of the distance loop, but the kernel still matches the oracle on them
// by falling back to it.
func TestRankImageSortFallback(t *testing.T) {
	base := firstDistances(radixMinPairs + 3)
	for _, bad := range []float64{math.NaN(), math.Copysign(0, -1), -1} {
		in := append([]float64(nil), base...)
		in[len(in)/2] = bad
		checkRankSort(t, in, fmt.Sprint(bad))
	}
}

// FuzzRankImageSort checks the radix kernel against sort.Float64s on
// arbitrary non-negative inputs: each 8 bytes of the fuzz input become
// one key with the sign bit cleared.
func FuzzRankImageSort(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 1, 2, 3, 4, 5, 6, 7, 8}, uint16(radixMinPairs))
	f.Fuzz(func(t *testing.T, raw []byte, repeat uint16) {
		var in []float64
		for i := 0; i+8 <= len(raw); i += 8 {
			var k uint64
			for b := 0; b < 8; b++ {
				k |= uint64(raw[i+b]) << (8 * b)
			}
			v := math.Float64frombits(k &^ (1 << 63))
			if math.IsNaN(v) {
				continue
			}
			in = append(in, v)
		}
		// Tile the keys past the cutoff so the radix path is reached
		// from short fuzz inputs too.
		if k := len(in); k > 0 {
			for len(in) < int(repeat) {
				in = append(in, in[len(in)%k])
			}
		}
		checkRankSort(t, in, "fuzz")
	})
}

// BenchmarkRankImageSort times the two rank-image kernels on realistic
// pair distances either side of radixMinPairs; the crossover is where
// the constant comes from.
func BenchmarkRankImageSort(b *testing.B) {
	for _, n := range []int{15, 20, 30, 40, 46, 50, 100, 200} {
		dist := pairDistances(n, 2, 7)
		m := len(dist)
		disp := make([]float64, m)
		tmp := make([]float64, m)
		b.Run(fmt.Sprintf("m=%d/pdqsort", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(disp, dist)
				sort.Float64s(disp)
			}
		})
		b.Run(fmt.Sprintf("m=%d/radix", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				radixSortInto(disp, dist, tmp)
			}
		})
	}
}
