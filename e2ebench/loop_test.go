package main

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestClosedLoopAccounting(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{} // client → ops issued
	op := func(_ context.Context, client, seq int) (outcome, time.Duration) {
		mu.Lock()
		seen[client]++
		mu.Unlock()
		time.Sleep(time.Millisecond)
		switch seq % 4 {
		case 1:
			return opFailed, time.Millisecond
		case 2:
			return opRefused, time.Millisecond
		case 3:
			return opWrong, 2 * time.Millisecond
		}
		return opOK, time.Millisecond
	}
	tl := closedLoop(context.Background(), 2, 60*time.Millisecond, op)
	if tl.Attempted != seen[0]+seen[1] || seen[0] == 0 || seen[1] == 0 {
		t.Fatalf("attempted %d, ops issued per client %v", tl.Attempted, seen)
	}
	if tl.OK+tl.Failed+tl.Refused+tl.Wrong != tl.Attempted {
		t.Errorf("outcomes %d+%d+%d+%d do not add up to %d attempted", tl.OK, tl.Failed, tl.Refused, tl.Wrong, tl.Attempted)
	}
	if tl.bad() != tl.Failed+tl.Refused+tl.Wrong {
		t.Errorf("bad() = %d", tl.bad())
	}
	// Latencies exist for completed ops only: OK and wrong.
	if len(tl.Lat) != tl.OK+tl.Wrong {
		t.Errorf("%d latencies for %d completed ops", len(tl.Lat), tl.OK+tl.Wrong)
	}
	if tl.Wall < 60*time.Millisecond {
		t.Errorf("wall time %v shorter than the run", tl.Wall)
	}
	// The loop calibrates at least before and after it.
	if len(tl.Cal) < 2 {
		t.Errorf("%d calibration samples", len(tl.Cal))
	}
}

func TestClosedLoopStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	tl := closedLoop(ctx, 1, time.Hour, func(context.Context, int, int) (outcome, time.Duration) {
		n++
		if n == 3 {
			cancel()
		}
		return opOK, 0
	})
	if tl.Attempted != 3 || tl.OK != 3 {
		t.Fatalf("attempted %d ok %d, want 3 and 3", tl.Attempted, tl.OK)
	}
}

func TestZipfKeysDeterministic(t *testing.T) {
	draw := func(seed uint64, client int) []int {
		k := newZipfKeys(seed, client, 64, 1.1)
		out := make([]int, 2000)
		for i := range out {
			out[i] = k.next()
		}
		return out
	}
	a, b := draw(7, 0), draw(7, 0)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs for the same seed: %d vs %d", i, a[i], b[i])
		}
	}
	same := 0
	for i, x := range draw(7, 1) {
		if x == a[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("two clients draw the same stream")
	}
	other := draw(8, 0)
	diff := false
	for i := range a {
		diff = diff || other[i] != a[i]
	}
	if !diff {
		t.Error("another seed draws the same stream")
	}
	counts := make([]int, 64)
	for _, x := range a {
		if x < 0 || x >= 64 {
			t.Fatalf("key %d out of range", x)
		}
		counts[x]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] || counts[10] <= counts[63] {
		t.Errorf("draws are not skewed toward low ranks: %v", counts)
	}
}
