package main

// CLI-level tests: realMain and estimateAll over generated SWF logs,
// pinning the per-file fan-out's keep-going, fail-fast and manifest
// behaviour end to end.

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coplot/internal/obs"
	"coplot/internal/par"
	"coplot/internal/store"
)

// runCLI runs realMain with args, capturing its exit code, stdout and
// stderr. It swaps the process-wide flag set and output files, so
// tests that call it must not run in parallel.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	outF, err := os.Create(filepath.Join(dir, "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer outF.Close()
	errF, err := os.Create(filepath.Join(dir, "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer errF.Close()
	oldArgs, oldFlags, oldOut, oldErr := os.Args, flag.CommandLine, os.Stdout, os.Stderr
	defer func() { os.Args, flag.CommandLine, os.Stdout, os.Stderr = oldArgs, oldFlags, oldOut, oldErr }()
	os.Args = append([]string{"hurst"}, args...)
	flag.CommandLine = flag.NewFlagSet("hurst", flag.ContinueOnError)
	os.Stdout, os.Stderr = outF, errF
	code = realMain()
	o, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatal(err)
	}
	e, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(o), string(e)
}

// stableManifest reads a manifest and strips its timing fields.
func stableManifest(t *testing.T, path string) *obs.Manifest {
	t.Helper()
	m, err := obs.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	return m.Stable()
}

func TestCLICleanRunManifest(t *testing.T) {
	a, b := writeTestLog(t), writeTestLog(t)
	mpath := filepath.Join(t.TempDir(), "m.json")
	code, stdout, stderr := runCLI(t, "-jobs", "2", "-manifest", mpath, a, b)
	if code != 0 || stderr != "" {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if strings.Index(stdout, a) > strings.Index(stdout, b) {
		t.Fatal("reports out of argument order")
	}
	m := stableManifest(t, mpath)
	if len(m.Tasks) != 2 || m.Tasks[0].Status != "ok" || m.Tasks[1].Status != "ok" {
		t.Fatalf("tasks = %+v", m.Tasks)
	}
	if m.Failures != nil {
		t.Fatalf("clean run has failures %+v", m.Failures)
	}
	if m.Pool.Capacity != 2 {
		t.Fatalf("pool capacity = %d, want 2", m.Pool.Capacity)
	}
}

func TestCLIKeepGoingReportsFailures(t *testing.T) {
	good := writeTestLog(t)
	missing := filepath.Join(t.TempDir(), "none.swf")
	_, alone, _ := runCLI(t, good)

	mpath := filepath.Join(t.TempDir(), "m.json")
	code, stdout, stderr := runCLI(t, "-jobs", "2", "-manifest", mpath, good, missing)
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if stdout != alone {
		t.Fatal("the surviving report changed")
	}
	if !strings.HasPrefix(stderr, "hurst: "+missing+": ") || strings.Count(stderr, "\n") != 1 {
		t.Fatalf("stderr = %q", stderr)
	}
	m := stableManifest(t, mpath)
	st := map[string]string{}
	for _, tr := range m.Tasks {
		st[tr.Name] = tr.Status
	}
	if want := map[string]string{good: "ok", missing: "error"}; !reflect.DeepEqual(st, want) || len(m.Tasks) != 2 {
		t.Fatalf("tasks = %+v, want %v", m.Tasks, want)
	}
	if f := m.Failures; f == nil || !f.Degraded || !reflect.DeepEqual(f.Failed, []string{missing}) {
		t.Fatalf("failures = %+v", m.Failures)
	}
}

func TestEstimateAllKeepGoingFalseStopsBatch(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "none.swf")
	paths := []string{missing}
	for i := 0; i < 5; i++ {
		paths = append(paths, writeTestLog(t))
	}
	reports := estimateAll(paths, "", estimateOptions{keepGoing: false, budget: par.NewBudget(1)})
	if len(reports) != len(paths) {
		t.Fatalf("reports = %d", len(reports))
	}
	// One worker meets the missing file first: the batch stops there,
	// and no later file reports success.
	if reports[0].err == nil || !strings.Contains(reports[0].err.Error(), "none.swf") {
		t.Fatalf("first report err = %v", reports[0].err)
	}
	for i, rep := range reports[1:] {
		if rep.err == nil {
			t.Fatalf("report %d succeeded after the batch stopped", i+1)
		}
	}

	// With parallel workers, a good file may be cancelled mid-estimate,
	// but no report succeeds: each is its own failure or the batch
	// error, which names the failing file.
	reports = estimateAll(paths, "", estimateOptions{keepGoing: false, budget: par.NewBudget(2)})
	for i, rep := range reports {
		if rep.err == nil || !strings.Contains(rep.err.Error(), "none.swf") && !errors.Is(rep.err, context.Canceled) {
			t.Fatalf("report %d err %v is neither its own failure nor the batch error", i, rep.err)
		}
	}
	if reports[0].err == nil {
		t.Fatal("missing file produced no error")
	}
}

// TestEstimateAllJobsBoundsWorkers pins the -jobs contract: the file
// fan-out and the estimator fan-out inside each file draw from one
// budget, so at -jobs 2 no more than two items ever run at once.
func TestEstimateAllJobsBoundsWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // room for oversubscription to show
	var live, peak atomic.Int64
	orig := estimateFile
	defer func() { estimateFile = orig }()
	estimateFile = func(ctx context.Context, path, _ string, _ store.Backend, budget *par.Budget) (string, error) {
		// Three series estimated on the shared budget, like HurstReport.
		err := par.ForEach(ctx, budget, 3, func(int) error {
			n := live.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			time.Sleep(5 * time.Millisecond)
			live.Add(-1)
			return nil
		})
		return path, err
	}
	paths := []string{"a.swf", "b.swf", "c.swf", "d.swf", "e.swf", "f.swf"}
	for _, rep := range estimateAll(paths, "", estimateOptions{keepGoing: true, budget: par.NewBudget(2)}) {
		if rep.err != nil {
			t.Fatal(rep.err)
		}
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("peak concurrent work = %d at -jobs 2", p)
	}
}

// TestEstimateAllPerFileTimeout pins -timeout as a per-file limit: a
// file whose work outlasts it fails with DeadlineExceeded, whether the
// work watched its context or finished regardless.
func TestEstimateAllPerFileTimeout(t *testing.T) {
	orig := estimateFile
	defer func() { estimateFile = orig }()
	estimateFile = func(ctx context.Context, path, _ string, _ store.Backend, _ *par.Budget) (string, error) {
		switch path {
		case "watches.swf":
			<-ctx.Done()
			return "", ctx.Err()
		case "ignores.swf":
			time.Sleep(20 * time.Millisecond)
		}
		return path, nil
	}
	paths := []string{"watches.swf", "ignores.swf", "fast.swf"}
	reports := estimateAll(paths, "", estimateOptions{timeout: 5 * time.Millisecond, keepGoing: true, budget: par.NewBudget(2)})
	for i, want := range []error{context.DeadlineExceeded, context.DeadlineExceeded, nil} {
		if !errors.Is(reports[i].err, want) || want == nil && reports[i].err != nil {
			t.Fatalf("%s: err = %v, want %v", paths[i], reports[i].err, want)
		}
	}
	if reports[2].text != "fast.swf" {
		t.Fatalf("fast.swf report = %q", reports[2].text)
	}
}

// TestEstimateAllKeepGoingFalseKeepsRootError pins fail-fast error
// selection: siblings cancelled by a failure keep their own
// context.Canceled, and the files the batch never reached report the
// root failure labelled with its path, never a sibling's cancellation.
func TestEstimateAllKeepGoingFalseKeepsRootError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // four files in flight at once
	orig := estimateFile
	defer func() { estimateFile = orig }()
	boom := errors.New("boom")
	started := make(chan struct{})
	estimateFile = func(ctx context.Context, path, _ string, _ store.Backend, _ *par.Budget) (string, error) {
		switch path {
		case "fails.swf":
			<-started
			return "", boom
		case "f0.swf":
			close(started)
		}
		<-ctx.Done()
		return path, nil // swallows the cancellation
	}
	paths := []string{"f0.swf", "f1.swf", "f2.swf", "fails.swf", "never.swf"}
	reports := estimateAll(paths, "", estimateOptions{keepGoing: false, budget: par.NewBudget(4)})
	if !errors.Is(reports[3].err, boom) {
		t.Fatalf("fails.swf err = %v", reports[3].err)
	}
	for i, rep := range reports {
		if i == 3 || errors.Is(rep.err, context.Canceled) {
			continue
		}
		if !errors.Is(rep.err, boom) || !strings.HasPrefix(rep.err.Error(), "fails.swf: ") {
			t.Fatalf("%s: err = %v, want the root failure", paths[i], rep.err)
		}
	}
	if !errors.Is(reports[4].err, boom) {
		t.Fatalf("never.swf err = %v, want the root failure", reports[4].err)
	}
}
