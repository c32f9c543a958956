package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 100},
		// Two overlapping children (fanned-out work) cover 10..60 once.
		{ID: 2, Parent: 1, Op: 1, Name: "swf.parse", Start: 10, End: 40},
		{ID: 3, Parent: 1, Op: 1, Name: "swf.parse", Start: 30, End: 60},
		// A disjoint child, with its own child.
		{ID: 4, Parent: 1, Op: 1, Name: "mds.ssa", Start: 70, End: 90},
		{ID: 5, Parent: 4, Op: 1, Name: "mds.classical", Start: 70, End: 75},
		// A child reaching past its parent counts only inside it.
		{ID: 6, Parent: 5, Op: 1, Name: "x", Start: 74, End: 80},
	}
	want := map[int64]float64{1: 100 - 50 - 20, 2: 30, 3: 30, 4: 20 - 5, 5: 5 - 1, 6: 6}
	got := selfTimes(spans)
	for id, w := range want {
		if !near(got[id], w) {
			t.Errorf("self time of span %d = %v, want %v", id, got[id], w)
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	for _, tc := range []struct {
		spans []Span
		want  float64
	}{
		{nil, 0},
		{[]Span{{Start: 0, End: 10}, {Start: 5, End: 15}, {Start: 20, End: 30}}, 25},
		{[]Span{{Start: 0, End: 10}, {Start: 10, End: 20}}, 20},
		{[]Span{{Start: -5, End: 5}, {Start: 95, End: 200}}, 10},
		{[]Span{{Start: 2, End: 3}, {Start: 0, End: 50}}, 50},
	} {
		if got := covered(0, 100, tc.spans); !near(got, tc.want) {
			t.Errorf("covered(%v) = %v, want %v", tc.spans, got, tc.want)
		}
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *Recorder
	id := r.Begin(1, 0, "op")
	r.End(id)
	r.EndCount(id, 3)
	if r.Spans() != nil || id != 0 {
		t.Fatal("a nil recorder recorded something")
	}
}

func TestSpanMetrics(t *testing.T) {
	spans := []Span{
		// op 1 and op 2 each parse and solve; op 3 is the w1 reference;
		// op 4 and op 5 count their solves' iterations.
		{ID: 1, Op: 1, Name: "op", Start: 0, End: 10e6},
		{ID: 2, Parent: 1, Op: 1, Name: "swf.parse", Start: 0, End: 2e6, Count: 100e6},
		{ID: 3, Parent: 1, Op: 1, Name: "mds.ssa", Start: 2e6, End: 8e6},
		{ID: 4, Op: 2, Name: "op", Start: 10e6, End: 20e6},
		{ID: 5, Parent: 4, Op: 2, Name: "swf.parse", Start: 10e6, End: 14e6, Count: 100e6},
		{ID: 6, Parent: 4, Op: 2, Name: "mds.ssa", Start: 14e6, End: 18e6},
		{ID: 7, Op: 3, Name: w1Root, Start: 20e6, End: 40e6},
		{ID: 8, Parent: 7, Op: 3, Name: "mds.ssa", Start: 20e6, End: 36e6},
		{ID: 9, Op: 4, Name: "op", Start: 40e6, End: 60e6},
		{ID: 10, Parent: 9, Op: 4, Name: "swf.parse", Start: 40e6, End: 42e6, Count: 100e6},
		{ID: 11, Parent: 9, Op: 4, Name: "mds.ssa", Start: 42e6, End: 58e6, Count: 50},
		{ID: 12, Parent: 11, Op: 4, Name: "mds.classical", Start: 42e6, End: 43e6},
		{ID: 13, Op: 5, Name: "op", Start: 60e6, End: 80e6},
		{ID: 14, Parent: 13, Op: 5, Name: "mds.ssa", Start: 60e6, End: 78e6, Count: 70},
		{ID: 15, Parent: 14, Op: 5, Name: "mds.classical", Start: 60e6, End: 62e6},
	}
	defs := []metricDef{{"swf.parse_s", "s"}, {"mds.ssa_s", "s"}, {"mds.classical_s", "s"}, {"core.render_s", "s"}}
	out := map[string]float64{}
	per := spanMetrics(spans, defs, out)
	want := map[string]float64{
		"swf.parse_s":         3,   // median of 2 s and 4 s: counting ops are left out
		"mds.ssa_s":           5,   // the w1 op is left out
		"mds.classical_s":     1.5, // from the counting ops only
		"core.render_s":       0,   // no op ran it
		"mds.iterations":      60,  // median of 50 and 70
		"swf.parse_mb_per_s":  37.5,
		"w1.op_s":             20,
		"w1.mds.ssa_s":        16,
		"w1.core.cityblock_s": 0,
	}
	for k, w := range want {
		if !near(out[k], w) {
			t.Errorf("%s = %v, want %v", k, out[k], w)
		}
	}
	for _, op := range []int64{3, 4, 5} {
		if _, ok := per[op]; ok {
			t.Errorf("op %d stayed among the ops the medians cover", op)
		}
	}
	shares := layerShares(per)
	if !near(shares["mds"], 10.0/20) || !near(shares["swf"], 6.0/20) || !near(shares["op"], 4.0/20) {
		t.Errorf("layer shares = %v", shares)
	}
}

func TestAssignLanesNest(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 70}, // overlaps a: another lane
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 30}, // nests in a
		{ID: 5, Parent: 1, Name: "d", Start: 80, End: 90}, // after both
	}
	lanes := assignLanes(spans)
	byLane := map[int][]Span{}
	for i, s := range spans {
		byLane[lanes[i]] = append(byLane[lanes[i]], s)
	}
	for l, ss := range byLane {
		for i := range ss {
			for j := range ss {
				a, b := ss[i], ss[j]
				overlap := a.Start < b.End && b.Start < a.End
				nested := (a.Start >= b.Start && a.End <= b.End) || (b.Start >= a.Start && b.End <= a.End)
				if i != j && overlap && !nested {
					t.Errorf("lane %d holds overlapping, unnested spans %s and %s", l, a.Name, b.Name)
				}
			}
		}
	}
	if lanes[1] == lanes[2] {
		t.Error("overlapping siblings share a lane")
	}
}
