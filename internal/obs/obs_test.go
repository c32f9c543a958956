package obs

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// collector is a threadsafe test sink recording every event.
type collector struct {
	mu     sync.Mutex
	events []Event
}

func (c *collector) Event(e Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collector) kinds() map[Kind]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := map[Kind]int{}
	for _, e := range c.events {
		m[e.Kind]++
	}
	return m
}

func TestEmitStampsTimeAndToleratesNil(t *testing.T) {
	Emit(nil, Event{Kind: KindTaskStart}) // must not panic
	c := &collector{}
	Emit(c, Event{Kind: KindTaskStart, Name: "a"})
	if len(c.events) != 1 || c.events[0].Time.IsZero() {
		t.Fatalf("events = %+v", c.events)
	}
	fixed := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	Emit(c, Event{Kind: KindTaskFinish, Time: fixed})
	if !c.events[1].Time.Equal(fixed) {
		t.Fatalf("preset time overwritten: %v", c.events[1].Time)
	}
}

func TestMultiFansOutAndCollapses(t *testing.T) {
	a, b := &collector{}, &collector{}
	m := Multi(a, nil, Discard, b)
	m.Event(Event{Kind: KindRunStart})
	if len(a.events) != 1 || len(b.events) != 1 {
		t.Fatalf("fan-out missed a sink: %d, %d", len(a.events), len(b.events))
	}
	if Multi() != Discard || Multi(nil, Discard) != Discard {
		t.Fatal("empty Multi should collapse to Discard")
	}
	if Multi(a, nil) != Sink(a) {
		t.Fatal("single-sink Multi should collapse to the sink itself")
	}
}

func TestDiscardDropsEvents(t *testing.T) {
	Discard.Event(Event{Kind: KindRunFinish}) // must not panic
}

func TestFanOutEventSequence(t *testing.T) {
	c := &collector{}
	run := StartFanOut(c, 2)
	if err := run.Task("b.swf", func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := run.Task("a.swf", func() error { return boom }); err != boom {
		t.Fatalf("Task err = %v, want boom", err)
	}
	run.Finish([]string{"c.swf", "a.swf"})

	want := []Event{
		{Kind: KindRunStart, Capacity: 2},
		{Kind: KindTaskStart, Name: "b.swf"},
		{Kind: KindTaskFinish, Name: "b.swf"},
		{Kind: KindTaskStart, Name: "a.swf"},
		{Kind: KindTaskFinish, Name: "a.swf", Err: "boom"},
		{Kind: KindRunDegraded, Failed: 2, Err: "failed: a.swf, c.swf"},
		{Kind: KindRunFinish},
	}
	if len(c.events) != len(want) {
		t.Fatalf("events = %+v", c.events)
	}
	for i, e := range c.events {
		e.Time, e.Elapsed = time.Time{}, 0
		if !reflect.DeepEqual(e, want[i]) {
			t.Fatalf("event %d = %+v, want %+v", i, e, want[i])
		}
	}

	// A clean (or fail-fast) finish emits no run.degraded.
	c = &collector{}
	StartFanOut(c, 1).Finish(nil)
	if k := c.kinds(); k[KindRunDegraded] != 0 || k[KindRunStart] != 1 || k[KindRunFinish] != 1 {
		t.Fatalf("kinds = %v", k)
	}
}
