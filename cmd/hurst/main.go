// Command hurst estimates the Hurst parameter of the four per-workload
// series of the paper's Table 3 — used processors, runtime, total CPU
// work, and inter-arrival times — with the three estimators of the
// appendix: R/S analysis, variance-time plots, and the periodogram.
//
// Usage:
//
//	hurst [-svgdir DIR] [-jobs N] [-timeout D] [-keep-going=BOOL]
//	      [-cache-dir DIR] [-cache-tier memory|disk|tiered]
//	      FILE.swf...
//
// Files are estimated in parallel with -timeout per file. The file
// fan-out and the per-series estimator fan-out inside each file draw
// from one -jobs budget, so at most -jobs workers run at once. Reports
// print in argument order and — by default (-keep-going=true) — a
// failing file does not stop the others; -keep-going=false makes the
// first failure cancel the batch.
// With -svgdir, the three diagnostic plots (pox plot, variance-time
// plot, periodogram) of each series are written as SVG files.
//
// With -cache-dir, each file's rendered report persists keyed by the
// file's content, so re-running over unchanged logs skips the
// estimation entirely; -svgdir bypasses the cache (a hit would skip
// writing the plots).
//
// Observability: -manifest records a JSON run manifest of the per-file
// fan-out (wall time per file, jobs/timeout settings), -trace appends
// the engine events as JSON lines, and -cpuprofile/-memprofile/-pprof
// expose the standard Go profilers.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"coplot/internal/obs"
	"coplot/internal/par"
	"coplot/internal/selfsim"
	"coplot/internal/service"
	"coplot/internal/store"
	"coplot/internal/swf"
)

func main() {
	os.Exit(realMain())
}

// realMain runs the CLI and returns its exit code, so deferred
// cleanups (profile flush, trace close) run before the process exits.
func realMain() int {
	svgDir := flag.String("svgdir", "", "write diagnostic plots as SVG under this directory")
	jobs := flag.Int("jobs", 0, "worker budget: files estimated concurrently and estimator workers (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "per-file time limit (0 = none)")
	keepGoing := flag.Bool("keep-going", true, "report failing files and continue; false cancels the batch on first failure")
	cacheDir := flag.String("cache-dir", "", "durable report cache directory; a file's rendered report is reused across invocations")
	cacheTier := flag.String("cache-tier", "", "cache backend: memory, disk, or tiered (empty = tiered when -cache-dir is set, memory otherwise)")
	manifestPath := flag.String("manifest", "", "write the run manifest to this file")
	tracePath := flag.String("trace", "", "append engine events as JSON lines to this file")
	var prof obs.Profile
	prof.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "hurst: no input files")
		return 2
	}
	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "hurst:", err)
		return 1
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, "hurst: profile:", err)
		}
	}()
	metrics := obs.NewMetrics()
	sinks := []obs.Sink{metrics}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hurst:", err)
			return 1
		}
		defer f.Close()
		sinks = append(sinks, obs.NewTrace(f))
	}
	var cache store.Backend
	if *cacheDir != "" || *cacheTier != "" {
		cache, err = store.Open(*cacheDir, *cacheTier, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hurst:", err)
			return 1
		}
	}
	reports := estimateAll(flag.Args(), *svgDir, estimateOptions{
		timeout: *timeout, keepGoing: *keepGoing,
		sink:  obs.Multi(sinks...),
		cache: cache,
		// One budget for the whole batch: file workers and the
		// estimator fan-out inside each file draw from the same -jobs.
		budget: par.NewBudget(*jobs),
	})
	if *manifestPath != "" {
		m := metrics.Manifest(obs.RunInfo{Tool: "hurst", Jobs: *jobs, Timeout: *timeout})
		if err := m.WriteFile(*manifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "hurst: manifest:", err)
			return 1
		}
	}
	exit := 0
	for i, rep := range reports {
		if rep.err != nil {
			fmt.Fprintf(os.Stderr, "hurst: %s: %v\n", flag.Arg(i), rep.err)
			exit = 1
			continue
		}
		fmt.Print(rep.text)
	}
	return exit
}

// report holds one file's rendered estimates, or its failure.
type report struct {
	text string
	err  error
}

// estimateOptions carries the fan-out settings from the flags.
type estimateOptions struct {
	timeout   time.Duration
	keepGoing bool
	sink      obs.Sink
	cache     store.Backend // durable report cache; nil = none
	budget    *par.Budget   // shared file and estimator workers, sized by -jobs
}

// estimateFile renders one file's report; tests substitute it to
// observe the fan-out.
var estimateFile = estimate

// estimateAll estimates the files on the shared budget and returns the
// reports in argument order, each carrying its own failure. With
// opts.keepGoing a failure leaves the other files running; without it
// the first failure cancels the batch, and every file that did not fail
// on its own reports that failure labelled with its path.
func estimateAll(paths []string, svgDir string, eopts estimateOptions) []report {
	run := obs.StartFanOut(eopts.sink, min(eopts.budget.Size(), len(paths)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reports := make([]report, len(paths)) // index i written only by its worker
	err := par.ForEach(ctx, eopts.budget, len(paths), func(i int) error {
		reports[i].err = run.Task(paths[i], func() error {
			fctx, fcancel := ctx, context.CancelFunc(func() {})
			if eopts.timeout > 0 {
				fctx, fcancel = context.WithTimeout(ctx, eopts.timeout)
			}
			defer fcancel()
			text, err := estimateFile(fctx, paths[i], svgDir, eopts.cache, eopts.budget)
			if err == nil {
				err = fctx.Err() // outlasting -timeout fails even if the work finished
			}
			reports[i].text = text
			return err
		})
		if reports[i].err != nil && !eopts.keepGoing {
			cancel()
			return fmt.Errorf("%s: %w", paths[i], reports[i].err)
		}
		return nil
	})
	var failed []string
	for i := range reports {
		switch {
		case err != nil && reports[i].err == nil:
			reports[i] = report{err: err}
		case eopts.keepGoing && reports[i].err != nil:
			failed = append(failed, paths[i])
		}
	}
	run.Finish(failed)
	return reports
}

// reportCacheSchema versions the cached report layout; bump it when
// the report rendering changes, so stale disk caches miss instead of
// serving old text.
const reportCacheSchema = 1

// estimate renders one log's estimates through the shared
// serving-layer renderer — hurst output and the /v1/hurst endpoint
// stay byte-identical — hooking the SVG diagnostics into its
// per-series callback. With a cache, the rendered report is keyed by
// the file's content (plus the report label, which embeds the path)
// and reused across invocations; SVG output bypasses the cache, since
// a cached hit would skip writing the plots.
func estimate(ctx context.Context, path, svgDir string, cache store.Backend, budget *par.Budget) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var key string
	if cache != nil && svgDir == "" {
		key = store.Key("hurst-cli", []string{
			fmt.Sprintf("schema=%d", reportCacheSchema),
			"label=" + path,
		}, data)
		if v, ok := cache.Get(key); ok {
			if text, ok := v.([]byte); ok {
				return string(text), nil
			}
		}
	}
	log, err := swf.Parse(bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	var onSeries func(name string, x []float64) error
	if svgDir != "" {
		onSeries = func(name string, x []float64) error {
			return writeDiagnostics(svgDir, path, name, x)
		}
	}
	text, err := service.HurstReport(ctx, path, log, budget, onSeries)
	if err == nil && key != "" {
		cache.Put(key, []byte(text), int64(len(text)))
	}
	return text, err
}

func writeDiagnostics(dir, logPath, seriesName string, x []float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := strings.TrimSuffix(filepath.Base(logPath), filepath.Ext(logPath))
	for _, d := range []struct {
		name string
		data func([]float64) (selfsim.FitData, error)
	}{
		{"pox", selfsim.RSData},
		{"vt", selfsim.VarianceTimeData},
		{"per", selfsim.PeriodogramData},
	} {
		fit, err := d.data(x)
		if err != nil {
			continue // short or degenerate series: skip the plot
		}
		svg, err := fit.SVG(fmt.Sprintf("%s %s %s", base, seriesName, d.name))
		if err != nil {
			continue
		}
		out := filepath.Join(dir, fmt.Sprintf("%s-%s-%s.svg", base, seriesName, d.name))
		if err := os.WriteFile(out, []byte(svg), 0o644); err != nil {
			return err
		}
	}
	return nil
}
