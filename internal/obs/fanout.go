package obs

import (
	"sort"
	"strings"
	"time"
)

// FanOut records a flat fan-out of named tasks, such as a CLI's
// per-file work, as one run: run.start when it opens, task.start and
// task.finish around each Task, then run.degraded (if the run kept
// going past failures) and run.finish from Finish. The caller owns the
// scheduling; FanOut only emits, so it is safe for concurrent Tasks.
type FanOut struct {
	sink  Sink
	start time.Time
}

// StartFanOut opens a run whose tasks execute on at most capacity
// concurrent workers.
func StartFanOut(sink Sink, capacity int) *FanOut {
	Emit(sink, Event{Kind: KindRunStart, Capacity: capacity})
	return &FanOut{sink: sink, start: time.Now()}
}

// Task runs fn as the task name between task.start and task.finish and
// returns fn's error.
func (f *FanOut) Task(name string, fn func() error) error {
	Emit(f.sink, Event{Kind: KindTaskStart, Name: name})
	start := time.Now()
	err := fn()
	fin := Event{Kind: KindTaskFinish, Name: name, Elapsed: time.Since(start)}
	if err != nil {
		fin.Err = err.Error()
	}
	Emit(f.sink, fin)
	return err
}

// Finish closes the run. degraded names the tasks that failed in a run
// that kept going past them; when it is non-empty, a run.degraded event
// summarizing them (sorted) precedes run.finish.
func (f *FanOut) Finish(degraded []string) {
	if len(degraded) > 0 {
		names := append([]string(nil), degraded...)
		sort.Strings(names)
		Emit(f.sink, Event{Kind: KindRunDegraded, Failed: len(names), Err: "failed: " + strings.Join(names, ", ")})
	}
	Emit(f.sink, Event{Kind: KindRunFinish, Elapsed: time.Since(f.start)})
}
