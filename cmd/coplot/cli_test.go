package main

// CLI-level tests: realMain runs in-process over generated SWF logs,
// pinning the per-file fan-out's keep-going, fail-fast and manifest
// behaviour end to end.

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"coplot/internal/models"
	"coplot/internal/obs"
	"coplot/internal/rng"
	"coplot/internal/swf"
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
	os.Args = append([]string{"coplot"}, args...)
	flag.CommandLine = flag.NewFlagSet("coplot", flag.ContinueOnError)
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

// writeModelLog writes a small generated log; distinct models give the
// Co-plot map distinct observations.
func writeModelLog(t *testing.T, dir, name string, m models.Model, seed uint64) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := swf.Write(f, m.Generate(rng.New(seed), 400)); err != nil {
		t.Fatal(err)
	}
	return path
}

// cliLogs returns three readable logs, a path that does not exist and a
// file that is not SWF.
func cliLogs(t *testing.T) (good []string, missing, garbage string) {
	t.Helper()
	dir := t.TempDir()
	good = []string{
		writeModelLog(t, dir, "lublin.swf", models.NewLublin(128), 1),
		writeModelLog(t, dir, "downey.swf", models.NewDowney(128), 2),
		writeModelLog(t, dir, "jann.swf", models.NewJann(128), 3),
	}
	garbage = filepath.Join(dir, "garbage.swf")
	if err := os.WriteFile(garbage, []byte("this is not a workload log\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return good, filepath.Join(dir, "missing.swf"), garbage
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

// taskStatuses maps each manifest task to its status.
func taskStatuses(m *obs.Manifest) map[string]string {
	st := map[string]string{}
	for _, tr := range m.Tasks {
		st[tr.Name] = tr.Status
	}
	return st
}

func TestCLICleanRunManifest(t *testing.T) {
	good, _, _ := cliLogs(t)
	mpath := filepath.Join(t.TempDir(), "m.json")
	code, stdout, stderr := runCLI(t, append([]string{"-jobs", "2", "-manifest", mpath}, good...)...)
	if code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr)
	}
	if !strings.Contains(stdout, "alienation") {
		t.Fatalf("no map report on stdout: %q", stdout)
	}
	m := stableManifest(t, mpath)
	want := map[string]string{good[0]: "ok", good[1]: "ok", good[2]: "ok"}
	if got := taskStatuses(m); !reflect.DeepEqual(got, want) || len(m.Tasks) != 3 {
		t.Fatalf("tasks = %+v, want %v", m.Tasks, want)
	}
	if m.Failures != nil {
		t.Fatalf("clean run has failures %+v", m.Failures)
	}
	if m.Pool.Capacity != 2 {
		t.Fatalf("pool capacity = %d, want 2", m.Pool.Capacity)
	}
}

func TestCLIKeepGoingDropsFailedLogs(t *testing.T) {
	good, missing, garbage := cliLogs(t)
	_, survivors, _ := runCLI(t, append([]string{"-jobs", "2"}, good...)...)

	mpath := filepath.Join(t.TempDir(), "m.json")
	args := []string{"-keep-going", "-jobs", "2", "-manifest", mpath,
		good[0], missing, good[1], garbage, good[2]}
	code, stdout, stderr := runCLI(t, args...)
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	for _, p := range []string{missing, garbage} {
		if !strings.Contains(stderr, "dropped "+p) {
			t.Fatalf("stderr does not name dropped %s: %q", p, stderr)
		}
	}
	for _, p := range good {
		if strings.Contains(stderr, p) {
			t.Fatalf("stderr names surviving log %s: %q", p, stderr)
		}
	}
	if stdout != survivors {
		t.Fatalf("degraded map differs from the map of the three survivors:\n%s\nvs\n%s", stdout, survivors)
	}

	m := stableManifest(t, mpath)
	want := map[string]string{good[0]: "ok", good[1]: "ok", good[2]: "ok", missing: "error", garbage: "error"}
	if got := taskStatuses(m); !reflect.DeepEqual(got, want) || len(m.Tasks) != 5 {
		t.Fatalf("tasks = %+v, want %v", m.Tasks, want)
	}
	failed := []string{garbage, missing} // sorted by name
	if f := m.Failures; f == nil || !f.Degraded || !reflect.DeepEqual(f.Failed, failed) || len(f.Skipped) != 0 || f.Retries != 0 {
		t.Fatalf("failures = %+v, want degraded with failed %v", m.Failures, failed)
	}
}

func TestCLIKeepGoingNeedsThreeSurvivors(t *testing.T) {
	good, missing, garbage := cliLogs(t)
	code, stdout, stderr := runCLI(t, "-keep-going", good[0], missing, garbage, good[1])
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, "only 2 of 4 logs loaded, need at least 3") {
		t.Fatalf("stderr = %q", stderr)
	}
	if stdout != "" {
		t.Fatalf("a map was printed: %q", stdout)
	}
}

func TestCLIFailFastNamesFailingPath(t *testing.T) {
	good, missing, _ := cliLogs(t)
	code, stdout, stderr := runCLI(t, "-jobs", "2", good[0], good[1], missing, good[2])
	if code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, stderr)
	}
	if !strings.Contains(stderr, missing) {
		t.Fatalf("stderr does not name %s: %q", missing, stderr)
	}
	if stdout != "" {
		t.Fatalf("a map was printed: %q", stdout)
	}
}

func TestCLITimeoutFailsSlowFile(t *testing.T) {
	good, _, _ := cliLogs(t)
	code, stdout, stderr := runCLI(t, append([]string{"-timeout", "1ns"}, good...)...)
	if code != 1 || stdout != "" {
		t.Fatalf("exit %d, stdout %q", code, stdout)
	}
	if !strings.Contains(stderr, good[0]+": context deadline exceeded") {
		t.Fatalf("stderr = %q", stderr)
	}
}
