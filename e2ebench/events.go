package main

import (
	"sync"
	"time"

	"coplot/internal/obs"
)

// eventLog is the obs.Sink the traced runs hand to the program's hooks
// (experiments.RunOptions.Sink, service.Config.Sink). It keeps what the
// per-layer metrics need: finished tasks — by name, so a client can
// join its request to the server-side task by X-Coplot-Key — and the
// store counters.
type eventLog struct {
	mu sync.Mutex

	// Finished tasks not yet claimed, by task name (experiment or cache
	// key), and every finished task's time in seconds by name.
	pending map[string][]taskSpan
	taskSec map[string][]float64

	hits, misses, evictions int
	wait                    time.Duration
}

// taskSpan is one finished task's interval.
type taskSpan struct {
	start, end time.Time
}

func newEventLog() *eventLog {
	return &eventLog{pending: map[string][]taskSpan{}, taskSec: map[string][]float64{}}
}

// Event implements obs.Sink.
func (l *eventLog) Event(e obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch e.Kind {
	case obs.KindTaskFinish:
		l.pending[e.Name] = append(l.pending[e.Name], taskSpan{start: e.Time.Add(-e.Elapsed), end: e.Time})
		l.taskSec[e.Name] = append(l.taskSec[e.Name], e.Elapsed.Seconds())
	case obs.KindStoreHit:
		l.hits++
	case obs.KindStoreMiss:
		l.misses++
	case obs.KindStoreEvict:
		l.evictions++
	case obs.KindStoreWait:
		l.wait += e.Elapsed
	}
}

// taskSpans records every unclaimed finished task as a child span of
// parent named experiments.<task>, and forgets them.
func (l *eventLog) taskSpans(rec *Recorder, op, parent int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for name, q := range l.pending {
		for _, s := range q {
			rec.Add(op, parent, "experiments."+name, s.start, s.end)
		}
	}
	l.pending = map[string][]taskSpan{}
}

// claim returns, and forgets, the oldest unclaimed finished task of key.
func (l *eventLog) claim(key string) (taskSpan, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	q := l.pending[key]
	if len(q) == 0 {
		return taskSpan{}, false
	}
	if len(q) == 1 {
		delete(l.pending, key)
	} else {
		l.pending[key] = q[1:]
	}
	return q[0], true
}

// tasks returns every finished task's durations in seconds, by name.
func (l *eventLog) tasks() map[string][]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string][]float64, len(l.taskSec))
	for k, v := range l.taskSec {
		out[k] = append([]float64(nil), v...)
	}
	return out
}

// storeMetrics condenses the store events over ops operations: the hit
// ratio, and misses, evictions and blocked seconds per operation.
func (l *eventLog) storeMetrics(ops int) map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := float64(max(ops, 1))
	ratio := 0.0
	if l.hits+l.misses > 0 {
		ratio = float64(l.hits) / float64(l.hits+l.misses)
	}
	return map[string]float64{
		"store.hit_ratio": ratio,
		"store.misses":    float64(l.misses) / n,
		"store.evictions": float64(l.evictions) / n,
		"store.wait_s":    l.wait.Seconds() / n,
	}
}
