package mds

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"coplot/internal/par"
)

// sameResult compares two Results bit-for-bit (byte identity is the
// contract of the parallel solver, not approximate equality).
func sameResult(t *testing.T, want, got Result, label string) {
	t.Helper()
	if math.Float64bits(want.Alienation) != math.Float64bits(got.Alienation) {
		t.Fatalf("%s: Alienation %v != %v", label, got.Alienation, want.Alienation)
	}
	if math.Float64bits(want.Stress) != math.Float64bits(got.Stress) {
		t.Fatalf("%s: Stress %v != %v", label, got.Stress, want.Stress)
	}
	if want.Iterations != got.Iterations || want.Start != got.Start {
		t.Fatalf("%s: (iters, start) = (%d, %d), want (%d, %d)",
			label, got.Iterations, got.Start, want.Iterations, want.Start)
	}
	if len(want.Config.Data) != len(got.Config.Data) {
		t.Fatalf("%s: config size differs", label)
	}
	for i := range want.Config.Data {
		if math.Float64bits(want.Config.Data[i]) != math.Float64bits(got.Config.Data[i]) {
			t.Fatalf("%s: config[%d] = %v, want %v", label, i, got.Config.Data[i], want.Config.Data[i])
		}
	}
}

// The headline determinism contract: SSA under any worker budget returns
// the exact bytes of the serial solver — same winning start, same
// coordinates, same alienation. Run under -race this also exercises the
// multi-start fan-out for data races.
func TestSSAParallelMatchesSerial(t *testing.T) {
	for _, method := range []DisparityMethod{RankImage, Monotone, Metric} {
		d := testCityBlockDissim(t, 12, 3)
		opts := Options{Seed: 7, Restarts: 6, Method: method}
		serial, err := SSA(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			opts.Par = par.NewBudget(workers)
			got, err := SSA(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, serial, got,
				fmt.Sprintf("method %d workers %d", method, workers))
		}
	}
}

// The blocked distance loop must also be byte-identical when the pair
// count crosses the blocking threshold (n=96 gives 4560 pairs, above
// minPairsPerBlock).
func TestSSABlockedDistancesMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("large matrix")
	}
	d := testCityBlockDissim(t, 96, 2)
	opts := Options{Seed: 3, Restarts: 1, MaxIter: 30}
	serial, err := SSA(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Par = par.NewBudget(4)
	got, err := SSA(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, serial, got, "blocked distances")
}

// The same contract at a realistic corpus size: n=200 gives 19,900
// pairs, above both radixMinPairs and minPairsPerBlock, so the radix
// rank image, the blocked distance loop and the Torgerson start running
// inside the fan-out are all exercised. A traced solve runs its starts
// serially, so the first callback still comes from start 0.
func TestSSAParallelMatchesSerialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("large matrix")
	}
	d := testCityBlockDissim(t, 200, 3)
	opts := Options{Seed: 7, Restarts: 3, Method: RankImage}
	serial, err := SSA(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		opts.Par = par.NewBudget(workers)
		got, err := SSA(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, serial, got, fmt.Sprintf("n=200 workers %d", workers))
	}

	first := -1
	opts.Trace = func(start, iter int, stress float64) {
		if first < 0 {
			first = start
		}
	}
	got, err := SSA(d, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, serial, got, "n=200 traced")
	if first != 0 {
		t.Fatalf("first traced start = %d, want 0", first)
	}
}
