// Command e2ebench is the repository's end-to-end benchmark. It runs one
// workload — paper, embed, serve or match — for a fixed time, checks
// every output, and prints the workload's metrics: a table for people,
// then, as the last line, one JSON object
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run is split into an untraced and a traced half and the metrics are
// the per-layer ones, with the traced spans written as JSON lines and
// as a Chrome trace under -trace-dir. Every input is generated from
// -seed by the repository's own generators.
//
// Build and run it from the repository root through run.sh:
//
//	bash e2ebench/run.sh --workload embed --seed 1 --seconds 20 --trace 0
//	bash e2ebench/run.sh --workload all --seed 1 --seconds 20
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A run sets its workload up setupReps times, and more until set-up
// has taken setupMin in all (at most setupMaxReps times); setup_s is
// the median, and only the last instance is measured.
const (
	setupReps    = 3
	setupMin     = 3 * time.Second
	setupMaxReps = 15
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	root     string // repository checkout root (holds the committed out/)
	traceDir string
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// clients is the number of closed-loop callers.
	clients() int
	// op runs one operation and checks its output.
	op(ctx context.Context, client, seq int) (outcome, time.Duration)
	// verify makes the checks that run once after the loop: the
	// sampled comparisons against direct library calls. It returns how
	// many checks it made and the failures among them.
	verify(ctx context.Context) (int, []string)
	// alienation is the Θ of the map the workload produced.
	alienation() float64
	// layers adds the per-layer metrics the program's hooks gave during
	// the traced loop to out; the rest come from the spans.
	layers(ctx context.Context, out map[string]float64)
	// failures are the recorded reasons of failed or wrong operations.
	failures() []string
	close() error
}

// workloadDef names a workload and builds instances of it (rec is nil
// for an untraced one).
type workloadDef struct {
	name  string
	setup func(ctx context.Context, cfg runConfig, rec *Recorder) (instance, error)
}

var workloads = []workloadDef{
	{"paper", setupPaper},
	{"embed", setupEmbed},
	{"serve", setupServe},
	{"match", setupMatch},
}

// metricDef is one reported metric, as declared in BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"heap_live_mb", "MB"},
	{"map_alienation", "theta"},
}

// experimentTasks are the experiments RunAll runs, in paper order.
var experimentTasks = []string{
	"table1", "fig1", "fig2", "table2", "fig3", "fig4", "params3", "table3", "fig5",
	"paper", "table3ci", "moments", "stability", "loadscale", "parametric", "selfsim-models",
}

// perLayer are the metrics of a traced run, in BENCHMARK.json order.
// A "<span>_s" metric is the median over traced ops of that span's
// summed self time; the others come from the program's hooks.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"swf.parse_s", "s"}, {"swf.parse_mb_per_s", "MB/s"},
		{"workload.compute_s", "s"},
		{"sites.generate_s", "s"}, {"models.generate_s", "s"}, {"selfsim.estimate_s", "s"},
	}
	for _, t := range experimentTasks {
		defs = append(defs, metricDef{"experiments." + t + "_s", "s"})
	}
	return append(defs,
		metricDef{"core.normalize_s", "s"}, metricDef{"core.cityblock_s", "s"},
		metricDef{"core.arrows_s", "s"}, metricDef{"core.render_s", "s"},
		metricDef{"mds.classical_s", "s"}, metricDef{"mds.ssa_s", "s"},
		metricDef{"mds.alienation_s", "s"}, metricDef{"mds.iterations", "count"},
		metricDef{"store.hit_ratio", "ratio"}, metricDef{"store.misses", "1/op"},
		metricDef{"store.evictions", "1/op"}, metricDef{"store.wait_s", "s/op"},
		metricDef{"service.compute_ms_p50", "ms"}, metricDef{"service.overhead_ms_p50", "ms"},
		metricDef{"service.refused", "count"},
		metricDef{"obs.metrics_bytes", "bytes"},
		metricDef{"corpus.entries", "count"}, metricDef{"corpus.match_ms_mean", "ms"},
		metricDef{"trace.overhead_ms", "ms"}, metricDef{"trace.spans", "count"},
		metricDef{"w1.op_s", "s"}, metricDef{"w1.core.cityblock_s", "s"},
		metricDef{"w1.mds.ssa_s", "s"}, metricDef{"w1.mds.alienation_s", "s"},
	)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed as the last line.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper, embed, serve, match, or all")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout root")
	flag.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/e2ebench-traces", "where traced runs write their spans")
	flag.Parse()
	cfg.trace = trace == 1
	if err := run(context.Background(), cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, cfg runConfig, w io.Writer) error {
	if cfg.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if _, err := os.Stat(cfg.root + "/go.mod"); err != nil {
		return fmt.Errorf("--root %q is not a repository checkout: %w", cfg.root, err)
	}
	var defs []workloadDef
	for _, d := range workloads {
		if cfg.workload == d.name || cfg.workload == "all" {
			defs = append(defs, d)
		}
	}
	if len(defs) == 0 {
		return fmt.Errorf("unknown workload %q (have paper, embed, serve, match, all)", cfg.workload)
	}
	var sums []summary
	for _, d := range defs {
		c := cfg
		c.workload = d.name
		s, report, err := runWorkload(ctx, c, d)
		if err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
		fmt.Fprint(w, report)
		sums = append(sums, s)
	}
	last := sums[0]
	if len(sums) > 1 {
		// One line for several workloads: metrics keyed workload/metric.
		last = summary{Correct: true, Metrics: map[string]metricValue{}}
		for i, s := range sums {
			last.Correct = last.Correct && s.Correct
			last.Attempted += s.Attempted
			last.Failed += s.Failed
			for k, v := range s.Metrics {
				last.Metrics[defs[i].name+"/"+k] = v
			}
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	if !last.Correct {
		// Reported through "correct" on the result line; the run itself
		// completed, so the exit status stays 0.
		fmt.Fprintln(os.Stderr, "e2ebench: outputs failed their checks")
	}
	fmt.Fprintln(w, string(line))
	return nil
}

// runWorkload sets the workload up, measures it and returns its JSON
// summary and the human-readable report.
func runWorkload(ctx context.Context, cfg runConfig, d workloadDef) (summary, string, error) {
	dur := time.Duration(cfg.seconds * float64(time.Second))
	var b strings.Builder
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Fprintf(&b, "== %s  seed=%d  seconds=%g  %s\n", d.name, cfg.seed, cfg.seconds, mode)

	reps := setupMaxReps
	if cfg.trace {
		reps = 1 // set-up time is an end-to-end metric; the traced run skips its repeats
	}
	var inst instance
	var setups, setupsRef []float64
	var spent time.Duration
	for i := 0; i < reps && (i < setupReps || spent < setupMin); i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return summary{}, "", err
			}
		}
		// Each set-up starts from a collected heap, between two
		// calibrations.
		runtime.GC()
		c0 := calibrate()
		t0 := time.Now()
		var err error
		if inst, err = d.setup(ctx, cfg, nil); err != nil {
			return summary{}, "", fmt.Errorf("set-up: %w", err)
		}
		dt := time.Since(t0)
		k, _ := speedScale([]calSample{c0, calibrate()})
		spent += dt
		setups = append(setups, dt.Seconds())
		setupsRef = append(setupsRef, dt.Seconds()*k)
	}

	if !cfg.trace {
		t := closedLoop(ctx, inst.clients(), dur, inst.op)
		live := heapLiveBytes()
		checks, fails := inst.verify(ctx)
		theta := inst.alienation()
		if err := inst.close(); err != nil {
			return summary{}, "", err
		}
		n := float64(max(t.Attempted, 1))
		raw := map[string]float64{
			"op_ms_p50":     median(t.Lat),
			"ops_per_s":     float64(len(t.Lat)) / t.Wall.Seconds(),
			"setup_s":       median(setups),
			"cpu_ms_per_op": float64(t.Cost.cpu.Nanoseconds()) / 1e6 / n,
		}
		k, kc := speedScale(t.Cal)
		m := map[string]float64{
			"op_ms_p50":       raw["op_ms_p50"] * k,
			"ops_per_s":       raw["ops_per_s"] / k,
			"setup_s":         median(setupsRef),
			"cpu_ms_per_op":   raw["cpu_ms_per_op"] * kc,
			"alloc_mb_per_op": float64(t.Cost.alloc) / 1e6 / n,
			"heap_live_mb":    float64(live) / 1e6,
			"map_alienation":  theta,
		}
		s := finish(&b, t, checks, len(fails), append(fails, inst.failures()...), endToEnd, m)
		fmt.Fprintf(&b, "  host speed: scale %.4f wall, %.4f CPU over %d calibrations; measured before scaling:\n",
			k, kc, len(t.Cal))
		for _, name := range []string{"op_ms_p50", "ops_per_s", "setup_s", "cpu_ms_per_op"} {
			fmt.Fprintf(&b, "    %-22s %12.4f\n", name, raw[name])
		}
		fmt.Fprintf(&b, "  %-24s %12.4f %s\n", "fail_frac", float64(s.Failed)/float64(s.Attempted), "ratio")
		for _, p := range []float64{90, 99} {
			if v, ok := tailPercentile(t.Lat, p); ok {
				fmt.Fprintf(&b, "  %-24s %12.4f %s\n", fmt.Sprintf("op_ms_p%g", p), v, "ms")
			} else {
				fmt.Fprintf(&b, "  %-24s %12s (fewer than %d samples beyond it)\n", fmt.Sprintf("op_ms_p%g", p), "-", minBeyond)
			}
		}
		fmt.Fprintf(&b, "  samples %d over %.2fs, set-ups %v\n", len(t.Lat), t.Wall.Seconds(), roundAll(setups))
		if len(t.Lat) <= 40 {
			fmt.Fprintf(&b, "  op_ms in order %v\n", roundAll(t.Lat))
		}
		return s, b.String(), nil
	}

	// Traced run: the first half measures the untraced instance, the
	// second half a fresh traced one, so the overhead is the difference
	// of their medians.
	tU := closedLoop(ctx, inst.clients(), dur/2, inst.op)
	if err := inst.close(); err != nil {
		return summary{}, "", err
	}
	rec := NewRecorder()
	traced, err := d.setup(ctx, cfg, rec)
	if err != nil {
		return summary{}, "", fmt.Errorf("traced set-up: %w", err)
	}
	tT := closedLoop(ctx, traced.clients(), dur/2, traced.op)
	m := map[string]float64{}
	traced.layers(ctx, m)
	checks, fails := traced.verify(ctx)
	if err := traced.close(); err != nil {
		return summary{}, "", err
	}
	spans := rec.Spans()
	per := spanMetrics(spans, perLayer, m)
	// Each half at the reference speed, so host drift between the
	// halves does not pass for tracing cost.
	kT, _ := speedScale(tT.Cal)
	kU, _ := speedScale(tU.Cal)
	m["trace.overhead_ms"] = median(tT.Lat)*kT - median(tU.Lat)*kU
	m["trace.spans"] = float64(len(spans))
	var t tally
	t.merge(tU)
	t.merge(tT)
	s := finish(&b, t, checks, len(fails), append(fails, traced.failures()...), perLayer, m)
	fmt.Fprintf(&b, "  op_ms_p50 untraced %.4f (n=%d), traced %.4f (n=%d), before scaling to the reference speed\n",
		median(tU.Lat), len(tU.Lat), median(tT.Lat), len(tT.Lat))
	b.WriteString(spanSummary(per))
	base := fmt.Sprintf("%s-seed%d", d.name, cfg.seed)
	jsonl, chrome, err := writeTrace(cfg.traceDir, base, spans)
	if err != nil {
		return summary{}, "", err
	}
	fmt.Fprintf(&b, "  spans: %s, %s\n", jsonl, chrome)
	return s, b.String(), nil
}

// finish assembles the summary from the loop's tally, the post-loop
// checks (checkFails of them failed) and the metric values, and
// renders the metric table; fails are the failure reasons to print.
func finish(b *strings.Builder, t tally, checks, checkFails int, fails []string, defs []metricDef, m map[string]float64) summary {
	s := summary{
		Attempted: t.Attempted + checks,
		Failed:    t.bad() + checkFails,
		Metrics:   map[string]metricValue{},
	}
	for _, def := range defs {
		v := m[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fails = append(fails, fmt.Sprintf("metric %s is not finite", def.name))
			s.Failed++
			v = 0
		}
		s.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
		fmt.Fprintf(b, "  %-24s %12.4f %s\n", def.name, v, def.unit)
	}
	s.Correct = s.Failed == 0 && s.Attempted > 0
	fmt.Fprintf(b, "  ops attempted %d ok %d failed %d refused %d wrong %d; post-run checks %d failed %d\n",
		t.Attempted, t.OK, t.Failed, t.Refused, t.Wrong, checks, checkFails)
	sort.Strings(fails)
	for _, f := range fails {
		fmt.Fprintf(b, "  CHECK FAILED: %s\n", f)
	}
	return s
}

func roundAll(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}
