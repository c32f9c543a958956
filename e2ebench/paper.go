package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"coplot/internal/experiments"
	"coplot/internal/machine"
	"coplot/internal/mds"
	"coplot/internal/models"
	"coplot/internal/par"
	"coplot/internal/rng"
	"coplot/internal/selfsim"
	"coplot/internal/service"
	"coplot/internal/sites"
	"coplot/internal/swf"
	"coplot/internal/workload"
)

// paperJobs is the worker budget of the paper workload, as in
// `experiments -run all -jobs 2`.
const paperJobs = 2

// paperInst regenerates every table and figure of the paper once per
// op, at the default scale, and compares them with the committed out/.
type paperInst struct {
	failLog
	golden    map[string]string // out/ file name → contents
	knownDiff map[string]bool   // checks the committed out/ records as DIFF
	theta     []float64         // fig1 alienation of each op's map
	rec       *Recorder
	ops       atomic.Int64
	events    *eventLog
}

// fig1Theta reads the map's alienation from a rendered fig1 report.
var fig1Theta = regexp.MustCompile(`alienation ([0-9.]+)`)

func setupPaper(ctx context.Context, cfg runConfig, rec *Recorder) (instance, error) {
	p := &paperInst{golden: map[string]string{}, knownDiff: map[string]bool{}, rec: rec}
	dir := filepath.Join(cfg.root, "out")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if e.IsDir() || e.Name() == "manifest.json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		p.golden[e.Name()] = string(data)
		for _, line := range strings.Split(string(data), "\n") {
			if rest, ok := strings.CutPrefix(line, "[DIFF] "); ok {
				p.knownDiff[strings.TrimSpace(rest[:min(38, len(rest))])] = true
			}
		}
	}
	if rec != nil {
		p.events = newEventLog()
	}
	// Warm-up: one checked suite run, so the measured ops find the heap
	// grown and the code paged in.
	if o, _ := p.op(ctx, 0, -1); o != opOK {
		return nil, fmt.Errorf("warm-up suite run failed: %v", p.failures())
	}
	return p, nil
}

func (p *paperInst) clients() int { return 1 }

func (p *paperInst) op(ctx context.Context, _, seq int) (outcome, time.Duration) {
	var opID, root int64
	opts := experiments.RunOptions{Jobs: paperJobs}
	traced := p.rec != nil && seq >= 0
	if traced {
		opID = p.ops.Add(1)
		opts.Sink = p.events
		root = p.rec.Begin(opID, 0, "op")
	}
	t0 := time.Now()
	outs, err := experiments.RunAll(ctx, experiments.Config{}, opts)
	d := time.Since(t0)
	p.rec.End(root)
	if traced {
		p.events.taskSpans(p.rec, opID, root)
	}
	if err != nil {
		return p.fail(opFailed, "RunAll: %v", err), d
	}
	if traced {
		if err := p.probe(ctx, opID, seq%2 == 1); err != nil {
			return p.fail(opFailed, "layer probe: %v", err), d
		}
	}
	return p.check(outs), d
}

// check compares the suite's outputs with the committed out/: every
// text and SVG byte-identical, and every experiment check passing
// unless out/ records it as a known DIFF. It records the Θ of the fig1
// map. The workload has one client, so the checks never overlap.
func (p *paperInst) check(outs []*experiments.Output) outcome {
	want := 0
	for name := range p.golden {
		if strings.HasSuffix(name, ".txt") {
			want++
		}
	}
	if len(outs) != want {
		return p.fail(opWrong, "suite produced %d outputs, out/ holds %d", len(outs), want)
	}
	for _, o := range outs {
		if p.golden[o.Name+".txt"] != o.Text {
			return p.fail(opWrong, "%s.txt differs from out/", o.Name)
		}
		if o.SVG != "" && p.golden[o.Name+".svg"] != o.SVG {
			return p.fail(opWrong, "%s.svg differs from out/", o.Name)
		}
		for _, c := range o.Checks {
			if !c.Pass && !p.knownDiff[c.Name] {
				return p.fail(opWrong, "%s: check %q failed: %s", o.Name, c.Name, c.Measured)
			}
		}
		if o.Name == "fig1" {
			m := fig1Theta.FindStringSubmatch(o.Text)
			if m == nil {
				return p.fail(opWrong, "fig1 reports no alienation")
			}
			theta, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				return p.fail(opWrong, "fig1 alienation: %v", err)
			}
			p.theta = append(p.theta, theta)
		}
	}
	return opOK
}

// probe times the layers the suite is built on, called directly with
// the suite's default configuration: the site and model generators,
// the Hurst estimators over the Table 3 series, and the Co-plot map of
// the Table 1 observations, counting the solver's iterations if count
// is set. It runs after the suite, under its own root span of the same
// op.
func (p *paperInst) probe(ctx context.Context, op int64, count bool) error {
	cfg := experiments.Config{}.WithDefaults()
	b := par.NewBudget(paperJobs)
	root := p.rec.Begin(op, 0, "probe")
	defer p.rec.End(root)

	id := p.rec.Begin(op, root, "sites.generate")
	siteLogs, err := sites.GenerateAll(sites.Table1Specs(cfg.Jobs), cfg.Seed)
	if err == nil {
		_, err = sites.GenerateAll(sites.Table2Specs(cfg.PeriodJobs), cfg.Seed)
	}
	p.rec.End(id)
	if err != nil {
		return err
	}

	id = p.rec.Begin(op, root, "models.generate")
	// The five models on the machines their fits target, seeded as
	// experiments.ModelLogs seeds them.
	gens := []models.Model{
		models.NewFeitelson96(machine.NASA.Procs),
		models.NewFeitelson97(machine.NASA.Procs),
		models.NewDowney(machine.SDSC.Procs),
		models.NewJann(machine.CTC.Procs),
		models.NewLublin(machine.LLNL.Procs),
	}
	logs := make([]*swf.Log, 0, len(sites.Table1Names)+len(gens))
	for _, name := range sites.Table1Names {
		logs = append(logs, siteLogs[name])
	}
	for i, g := range gens {
		logs = append(logs, g.Generate(rng.New(cfg.Seed+uint64(i+1)*0x9e3779b97f4a7c15), cfg.ModelJobs))
	}
	p.rec.End(id)

	id = p.rec.Begin(op, root, "selfsim.estimate")
	var series [][]float64
	for _, l := range logs {
		s := selfsim.SeriesFromLog(l)
		for _, name := range selfsim.SeriesNames {
			series = append(series, s[name])
		}
	}
	_, err = selfsim.EstimateSet(ctx, b, series)
	p.rec.End(id)
	if err != nil {
		return err
	}

	rows := make([]workload.Variables, 0, len(sites.Table1Names))
	for _, name := range sites.Table1Names {
		id := p.rec.Begin(op, root, "workload.compute")
		v, err := workload.Compute(name, siteLogs[name], sites.MachineFor(name))
		p.rec.End(id)
		if err != nil {
			return err
		}
		rows = append(rows, v)
	}
	ds, err := service.DatasetFromVariables(rows)
	if err != nil {
		return err
	}
	res, err := analyzeStaged(ctx, p.rec, op, root, ds, mds.Options{Seed: cfg.MDSSeed, Restarts: 6, Par: b}, count)
	if err != nil {
		return err
	}
	id = p.rec.Begin(op, root, "core.render")
	_ = res.SVG(720, 540)
	p.rec.End(id)
	return nil
}

func (p *paperInst) verify(context.Context) (int, []string) { return 0, nil }

// alienation is the median Θ of the fig1 maps the ops produced.
func (p *paperInst) alienation() float64 { return median(p.theta) }

func (p *paperInst) layers(_ context.Context, out map[string]float64) {
	if p.events == nil {
		return
	}
	for k, v := range p.events.storeMetrics(int(p.ops.Load())) {
		out[k] = v
	}
	for name, xs := range p.events.tasks() {
		out["experiments."+name+"_s"] = median(xs)
	}
}

func (p *paperInst) close() error { return nil }
