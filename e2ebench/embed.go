package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coplot/internal/core"
	"coplot/internal/machine"
	"coplot/internal/mds"
	"coplot/internal/par"
	"coplot/internal/rng"
	"coplot/internal/service"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

// Embed workload sizing: set-up generates a pool of embedPool logs of
// embedMinJobs to embedMaxJobs jobs; one op maps embedLogs of them on a
// worker budget of embedJobs with the coplot CLI's default MDS seed.
// Ops cycle through embedDraws different draws from the pool: how many
// SMACOF iterations a map needs depends on its data, so one draw per
// run would make the run's time that one draw's luck.
const (
	embedPool    = 400
	embedLogs    = 200
	embedDraws   = 12
	embedMinJobs = 1000
	embedMaxJobs = 3000
	embedJobs    = 2
	embedMDSSeed = 7
	// thetaTol bounds how far an op's alienation may sit from the value
	// recorded for its draw (by the draw's first op).
	thetaTol = 1e-12
)

// embedInst maps sets of generated SWF logs with Co-plot once per op,
// the coplot CLI path: parse, characterize, analyze, report.
type embedInst struct {
	failLog
	specs    []logSpec
	machines []machine.Machine
	logs     [][]byte
	draws    [][]int // pool indices of each draw, ascending
	rec      *Recorder
	ops      atomic.Int64

	mu     sync.Mutex
	digest map[int]string  // draw → report digest of its first op
	theta  map[int]float64 // draw → that op's alienation
}

func setupEmbed(ctx context.Context, cfg runConfig, rec *Recorder) (instance, error) {
	e := &embedInst{
		// The pool is the same for every seed; the seed picks the draws.
		specs:  sweep(0, "embed", embedPool, embedMinJobs, embedMaxJobs),
		rec:    rec,
		digest: map[int]string{},
		theta:  map[int]float64{},
	}
	e.logs = make([][]byte, len(e.specs))
	e.machines = make([]machine.Machine, len(e.specs))
	err := par.ForEach(ctx, par.NewBudget(embedJobs), len(e.specs), func(i int) error {
		var err error
		if e.machines[i], err = e.specs[i].machine(); err != nil {
			return err
		}
		e.logs[i], err = e.specs[i].generate()
		return err
	})
	if err != nil {
		return nil, err
	}
	r := rng.New(rng.Derive(cfg.seed, "embed-draws"))
	for k := 0; k < embedDraws; k++ {
		d := r.Perm(embedPool)[:embedLogs]
		sort.Ints(d)
		e.draws = append(e.draws, d)
	}
	return e, nil
}

func (e *embedInst) clients() int { return 1 }

func (e *embedInst) op(ctx context.Context, _, seq int) (outcome, time.Duration) {
	jobs, root := embedJobs, "op"
	var opID int64
	count := false
	if e.rec != nil {
		opID = e.ops.Add(1)
		// The first traced op is the single-threaded reference; after
		// it, every third op counts the solver's iterations.
		if seq == 0 {
			jobs, root = 1, w1Root
		}
		count = seq%3 == 1
	}
	draw := seq % embedDraws
	t0 := time.Now()
	digest, theta, err := e.mapOnce(ctx, e.rec, par.NewBudget(jobs), draw, opID, root, count)
	d := time.Since(t0)
	if err != nil {
		return e.fail(opFailed, "op %d: %v", seq, err), d
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.digest[draw]; !ok {
		e.digest[draw], e.theta[draw] = digest, theta
	}
	switch {
	case digest != e.digest[draw]:
		return e.fail(opWrong, "op %d: report digest %s, draw %d first gave %s", seq, digest[:12], draw, e.digest[draw][:12]), d
	case math.Abs(theta-e.theta[draw]) > thetaTol:
		return e.fail(opWrong, "op %d: alienation %v, recorded %v", seq, theta, e.theta[draw]), d
	case !(theta > 0 && theta < 1):
		return e.fail(opWrong, "op %d: alienation %v outside (0, 1)", seq, theta), d
	}
	return opOK, d
}

// mapOnce maps one draw of logs and returns the report's digest and
// the map's alienation. Untraced, the analysis is one
// core.AnalyzeContext call; traced, it runs stage by stage with a span
// per stage (analyzeStaged, counting iterations if count is set), and
// must produce the same report.
func (e *embedInst) mapOnce(ctx context.Context, rec *Recorder, b *par.Budget, draw int, opID int64, rootName string, count bool) (string, float64, error) {
	root := rec.Begin(opID, 0, rootName)
	defer rec.End(root)
	idx := e.draws[draw]
	rows := make([]workload.Variables, len(idx))
	err := par.ForEach(ctx, b, len(idx), func(i int) error {
		k := idx[i]
		id := rec.Begin(opID, root, "swf.parse")
		log, err := swf.Parse(bytes.NewReader(e.logs[k]))
		rec.EndCount(id, int64(len(e.logs[k])))
		if err != nil {
			return fmt.Errorf("%s: %w", e.specs[k].Name, err)
		}
		id = rec.Begin(opID, root, "workload.compute")
		rows[i], err = workload.Compute(e.specs[k].Name, log, e.machines[k])
		rec.End(id)
		if err != nil {
			return fmt.Errorf("%s: %w", e.specs[k].Name, err)
		}
		return nil
	})
	if err != nil {
		return "", 0, err
	}
	ds, err := service.DatasetFromVariables(rows)
	if err != nil {
		return "", 0, err
	}
	mo := mds.Options{Seed: embedMDSSeed, Par: b}
	var res *core.Result
	if rec == nil {
		res, err = core.AnalyzeContext(ctx, ds, core.Options{MDS: mo})
	} else {
		res, err = analyzeStaged(ctx, rec, opID, root, ds, mo, count)
	}
	if err != nil {
		return "", 0, err
	}
	id := rec.Begin(opID, root, "core.render")
	report := res.Report()
	rec.End(id)
	return digest([]byte(report)), res.Alienation, nil
}

// verify, on a traced instance, maps the first draw once more through
// core.AnalyzeContext: the staged ops must have rendered its report.
func (e *embedInst) verify(ctx context.Context) (int, []string) {
	if e.rec == nil {
		return 0, nil
	}
	got, _, err := e.mapOnce(ctx, nil, par.NewBudget(embedJobs), 0, 0, "op", false)
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case err != nil:
		return 1, []string{fmt.Sprintf("untraced reference map: %v", err)}
	case got != e.digest[0]:
		return 1, []string{"staged analysis report differs from core.AnalyzeContext"}
	}
	return 1, nil
}

// alienation is the median Θ over the draws mapped.
func (e *embedInst) alienation() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	xs := make([]float64, 0, len(e.theta))
	for _, v := range e.theta {
		xs = append(xs, v)
	}
	return median(xs)
}

// layers has nothing to add: every embed layer metric comes from the
// spans.
func (e *embedInst) layers(context.Context, map[string]float64) {}

func (e *embedInst) close() error { return nil }
