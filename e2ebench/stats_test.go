package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

// ramp returns the samples 1..n in reverse order.
func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i)
	}
	return xs
}

func TestTailPercentileTenBeyondRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{100, 90, 90, true},   // rank 90, exactly ten beyond
		{99, 90, 0, false},    // rank 90, nine beyond
		{109, 90, 99, true},   // nearest rank rounds 98.1 up to 99: ten beyond
		{110, 90, 99, true},   // rank 99, eleven beyond
		{1000, 99, 990, true}, // rank 990, ten beyond
		{999, 99, 0, false},   // rank 990, nine beyond
		{20, 50, 10, true},    // the median of 20 has ten beyond
		{19, 50, 0, false},
		{0, 50, 0, false},
	} {
		got, ok := tailPercentile(ramp(tc.n), tc.p)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("tailPercentile(n=%d, p%g) = %v, %v; want %v, %v", tc.n, tc.p, got, ok, tc.want, tc.ok)
		}
	}
}
