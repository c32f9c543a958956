package mds

import (
	"context"
	"testing"

	"coplot/internal/mat"
	"coplot/internal/rng"
)

// TestNoConvergenceOnStressRise is the regression test for the
// convergence verdict: the halt test `prev-s < Tol*prev` is satisfied
// by any stress increase (prev−s is then negative), and the solver
// used to report such a stop as converged — the streaming warm-accept
// gate keyed off exactly that signal, so a degrading warm solve could
// be accepted. The halt point itself is intentional (rank-image
// disparities do rise occasionally, and iterating past a rise changes
// every embedding in the repo), so the property pins the verdict
// instead: Converged means the final step stayed inside the symmetric
// tolerance band |change| < Tol·prev, so a solve that halts on a rise
// beyond the tolerance must report Converged false (a settled descent
// oscillating within tolerance still counts). Single-descent solves
// (Restarts: -1) tie the trace unambiguously to the returned Result.
// The final guard asserts the data actually produced above-tolerance
// rise-halts, so the property is exercised rather than vacuous.
func TestNoConvergenceOnStressRise(t *testing.T) {
	opts := Options{Seed: 9, Restarts: -1}.withDefaults()
	riseHalts := 0
	for seed := uint64(0); seed < 24; seed++ {
		var ss []float64
		opts.Trace = func(start, iter int, stress float64) {
			ss = append(ss, stress)
		}
		d := randomDissim(rng.New(4000+seed), 18)
		res, err := SSA(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		last := len(ss) - 1
		if last < 1 || len(ss) >= opts.MaxIter {
			continue
		}
		if ss[last] <= perfectStress {
			continue // numerically perfect fits converge regardless of band
		}
		if rise := ss[last] - ss[last-1]; rise >= opts.Tol*ss[last-1] {
			riseHalts++
			if res.Converged {
				t.Errorf("seed %d: halted on an above-tolerance stress rise at iter %d (%g -> %g) yet reported Converged",
					seed, last, ss[last-1], ss[last])
			}
		}
		if res.Converged {
			if step := ss[last-1] - ss[last]; step >= opts.Tol*ss[last-1] || step <= -opts.Tol*ss[last-1] {
				t.Errorf("seed %d: Converged result's final step changed stress by %g, outside the ±%g tolerance band",
					seed, step, opts.Tol*ss[last-1])
			}
		}
	}
	if riseHalts == 0 {
		t.Fatal("no above-tolerance rise-halts observed across any seed; the property was not exercised")
	}
}

// TestConvergedOnGenuineImprovement is the positive half: a clean
// descent that halts under tolerance before the iteration cap must
// report Converged, and exhausting the cap must not.
func TestConvergedOnGenuineImprovement(t *testing.T) {
	// Metric disparities keep the SMACOF descent guarantee, so an
	// early halt can only be a genuine sub-tolerance improvement.
	d := planarDissim(15, 3)
	res, err := SSA(d, Options{Seed: 3, Restarts: -1, Method: Metric})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Seed: 3}.withDefaults()
	if res.Iterations >= opts.MaxIter {
		t.Fatalf("metric descent on planar data ran to the %d-iteration cap", opts.MaxIter)
	}
	if !res.Converged {
		t.Fatalf("halted at iteration %d of %d without reporting Converged", res.Iterations, opts.MaxIter)
	}
	capped, err := SSA(d, Options{Seed: 3, Restarts: -1, MaxIter: 3, Tol: 1e-300})
	if err != nil {
		t.Fatal(err)
	}
	if capped.Converged {
		t.Fatal("exhausting MaxIter reported Converged")
	}
}

// TestPerfectFitConvergesImmediately: three points embed exactly in the
// plane, so the descent reaches stress zero. The relative halt test can
// never fire on that state (`prev-s < Tol*prev` is `0 < 0`), so a
// perfect fit used to run to the MaxIter cap and report non-converged —
// the streaming warm-accept gate then re-anchored a small stream on
// every single append. A zero-stress state must halt promptly and count
// as converged.
func TestPerfectFitConvergesImmediately(t *testing.T) {
	opts := Options{Seed: 9, Restarts: -1}.withDefaults()
	for seed := uint64(0); seed < 8; seed++ {
		d := randomDissim(rng.New(7000+seed), 3)
		res, err := SSA(d, Options{Seed: 9, Restarts: -1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stress > perfectStress {
			t.Fatalf("seed %d: 3-point embedding left stress %g, want a perfect fit", seed, res.Stress)
		}
		if !res.Converged {
			t.Errorf("seed %d: perfect fit (stress %g) reported non-converged", seed, res.Stress)
		}
		if res.Iterations >= opts.MaxIter {
			t.Errorf("seed %d: perfect fit burned the whole %d-iteration cap", seed, opts.MaxIter)
		}
	}
}

// TestMetricCollapseIsDegenerate: an all-coincident configuration makes
// every distance zero; the Metric disparity path used to iterate on
// that state to MaxIter and return a zero-extent "fit", where Monotone
// already refused. Both must refuse. The collapsed state is reached by
// seeding the descent directly with a zero configuration.
func TestMetricCollapseIsDegenerate(t *testing.T) {
	d := planarDissim(8, 2)
	opts := Options{Method: Metric, Restarts: -1}.withDefaults()
	x0 := mat.New(8, opts.Dims) // all points at the origin
	_, err := ssaFrom(context.Background(), d, flattenPairs(d), x0, 0, opts)
	var deg *DegenerateInputError
	if !asDegenerate(err, &deg) {
		t.Fatalf("collapsed Metric solve returned %v, want *DegenerateInputError", err)
	}
}

// asDegenerate is errors.As without the import noise in call sites.
func asDegenerate(err error, target **DegenerateInputError) bool {
	if err == nil {
		return false
	}
	if e, ok := err.(*DegenerateInputError); ok {
		*target = e
		return true
	}
	return false
}

// TestSmacofAllocsIterationInvariant asserts the scratch-reuse
// contract: the SMACOF iteration loop allocates nothing, so a solve's
// allocations must not grow with its iteration count. Monotone used to
// allocate the implicit unit-weight slice plus three block buffers per
// iteration inside PAVA, on top of the per-iteration Guttman diagonal.
// The RankImage case sits above radixMinPairs, so its radix ping-pong
// buffer must be allocated once per descent, not once per iteration.
// Rank-image descents halt on the first stress rise even at Tol 1e-300,
// so the case pins that the long run really iterated.
func TestSmacofAllocsIterationInvariant(t *testing.T) {
	cases := []struct {
		name      string
		d         *mat.Matrix
		method    DisparityMethod
		few, many int
		minIters  int // iterations the many-run must reach
	}{
		{"monotone", planarDissim(30, 7), Monotone, 10, 200, 150},
		{"rank-radix", testCityBlockDissim(t, 60, 3), RankImage, 3, 200, 30},
	}
	for _, c := range cases {
		if c.method == RankImage && c.d.Rows*(c.d.Rows-1)/2 < radixMinPairs {
			t.Fatalf("%s: %d pairs is below the radix cutoff", c.name, c.d.Rows*(c.d.Rows-1)/2)
		}
		var iters int
		run := func(maxIter int) float64 {
			return testing.AllocsPerRun(5, func() {
				// Tol below float resolution: only MaxIter or a stress
				// rise stops the loop.
				res, err := SSA(c.d, Options{Seed: 3, Restarts: -1, Method: c.method, MaxIter: maxIter, Tol: 1e-300})
				if err != nil {
					t.Fatal(err)
				}
				iters = res.Iterations
			})
		}
		few := run(c.few)
		many := run(c.many)
		if iters < c.minIters {
			t.Fatalf("%s: long run stopped after %d iterations, want >= %d", c.name, iters, c.minIters)
		}
		// Identical modulo noise: the extra iterations may not cost
		// even one extra allocation on average.
		if many > few+5 {
			t.Fatalf("%s: allocations scale with iterations: %v allocs at %d iters, %v at %d",
				c.name, few, c.few, many, iters)
		}
	}
}
