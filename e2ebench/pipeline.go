package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"coplot/internal/core"
	"coplot/internal/mds"
)

// analyzeStaged does what core.AnalyzeContext does for an analysis
// without pruning — normalize, city-block, SSA, arrows — but as
// separate calls, so each stage gets its own span under parent. The
// result is the one AnalyzeContext returns; callers check that by
// comparing the rendered report or Θ with the untraced path.
//
// The mds.ssa span times the solve. Only with count set does the solve
// report to mds.Options.Trace, which makes the solver run its starts
// serially; the span then carries the SMACOF iterations of all starts
// as its count and has a child mds.classical, from the solver's entry
// to its first Trace callback: the input checks, pair flattening and
// the Torgerson start. Without count the starts run in parallel, as
// they do untraced, and the span has neither.
// mds.alienation times one recomputation of Θ for the fitted map,
// after the solve, and checks it against the solver's value.
func analyzeStaged(ctx context.Context, rec *Recorder, op, parent int64, ds *core.Dataset, mo mds.Options, count bool) (*core.Result, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	id := rec.Begin(op, parent, "core.normalize")
	z := core.Normalize(ds)
	rec.End(id)

	id = rec.Begin(op, parent, "core.cityblock")
	d := core.CityBlockWith(z, mo.Par)
	rec.End(id)

	var first time.Time
	iters := 0
	if count {
		mo.Trace = func(start, iter int, stress float64) {
			if iters == 0 {
				first = time.Now()
			}
			iters++
		}
	}
	ssaStart := time.Now()
	id = rec.Begin(op, parent, "mds.ssa")
	fit, err := mds.SSAContext(ctx, d, mo)
	rec.EndCount(id, int64(iters))
	if err != nil {
		return nil, err
	}
	if !first.IsZero() {
		rec.Add(op, id, "mds.classical", ssaStart, first)
	}

	aid := rec.Begin(op, parent, "mds.alienation")
	theta := mds.AlienationWith(d, fit.Config, mo.Par)
	rec.End(aid)
	// The solver evaluates Θ before centering and rotating the map, so
	// the recomputation agrees to rounding only.
	if math.Abs(theta-fit.Alienation) > 1e-9*fit.Alienation {
		return nil, fmt.Errorf("alienation recomputed as %v, solver reported %v", theta, fit.Alienation)
	}

	res := &core.Result{
		Alienation:      fit.Alienation,
		Stress:          fit.Stress,
		ZScores:         z,
		Dissimilarities: d,
	}
	for i, name := range ds.Observations {
		res.Points = append(res.Points, core.Point{Name: name, X: fit.Config.At(i, 0), Y: fit.Config.At(i, 1)})
	}
	id = rec.Begin(op, parent, "core.arrows")
	res.Arrows = core.FitArrows(ds.Variables, z, fit.Config)
	rec.End(id)
	res.AvgCorr, res.MinCorr = corrSummary(res.Arrows)
	return res, nil
}

// corrSummary is the mean and minimum arrow correlation, as the
// analysis reports them.
func corrSummary(arrows []core.Arrow) (avg, lo float64) {
	if len(arrows) == 0 {
		return 0, 0
	}
	sum := 0.0
	lo = math.Inf(1)
	for _, a := range arrows {
		sum += a.Corr
		if a.Corr < lo {
			lo = a.Corr
		}
	}
	return sum / float64(len(arrows)), lo
}
