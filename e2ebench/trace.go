package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval of the traced run. Spans of one operation
// share Op; Parent is the ID of the enclosing span (0 for a root).
// Start and End are microseconds since the recorder was created.
type Span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	// Count is the work the span did, in its own unit: input bytes for
	// swf.parse, SMACOF iterations over all starts for mds.ssa.
	Count int64 `json:"count,omitempty"`
}

// Dur is the span's length in microseconds.
func (s Span) Dur() float64 { return s.End - s.Start }

// Recorder keeps the spans of a run in memory until they are written
// out at the end. A nil *Recorder records nothing, so untraced code
// paths call it unguarded.
type Recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

// NewRecorder starts an empty recorder; its clock starts now.
func NewRecorder() *Recorder { return &Recorder{t0: time.Now()} }

func (r *Recorder) us(t time.Time) float64 { return float64(t.Sub(r.t0).Nanoseconds()) / 1e3 }

// Begin opens a span and returns its ID (0 on a nil recorder).
func (r *Recorder) Begin(op, parent int64, name string) int64 {
	if r == nil {
		return 0
	}
	now := r.us(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return id
}

// End closes the span id.
func (r *Recorder) End(id int64) { r.EndCount(id, 0) }

// EndCount closes the span id and records the work it did.
func (r *Recorder) EndCount(id int64, n int64) {
	if r == nil || id == 0 {
		return
	}
	now := r.us(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
	r.spans[id-1].Count = n
}

// Add records a span measured elsewhere (from a program hook's events).
func (r *Recorder) Add(op, parent int64, name string, start, end time.Time) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: r.us(start), End: r.us(end)})
	return id
}

// Spans returns a copy of everything recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// selfTimes returns each span's self time in microseconds: its
// duration minus the part of its interval that its children cover.
// Overlapping children (work fanned out on several workers) are
// counted once, as the union of their intervals.
func selfTimes(spans []Span) map[int64]float64 {
	children := map[int64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.Dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of [lo, hi] covered by the union of the spans.
func covered(lo, hi float64, spans []Span) float64 {
	type iv struct{ a, b float64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	total, curA, curB := 0.0, 0.0, 0.0
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// nameStats is what one operation's spans of one name add up to.
type nameStats struct {
	self  float64 // summed self time, µs
	dur   float64 // summed duration, µs
	count int64   // summed Count
}

// opStats sums, within each operation, the spans of each name.
func opStats(spans []Span) map[int64]map[string]nameStats {
	self := selfTimes(spans)
	out := map[int64]map[string]nameStats{}
	for _, s := range spans {
		m := out[s.Op]
		if m == nil {
			m = map[string]nameStats{}
			out[s.Op] = m
		}
		st := m[s.Name]
		st.self += self[s.ID]
		st.dur += s.Dur()
		st.count += s.Count
		m[s.Name] = st
	}
	return out
}

// perOpMedian is the median over the operations that ran a span named
// name of f applied to that name's sums; 0 when no operation ran it.
func perOpMedian(per map[int64]map[string]nameStats, name string, f func(nameStats) float64) float64 {
	var xs []float64
	for _, m := range per {
		if st, ok := m[name]; ok {
			xs = append(xs, f(st))
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// w1Root names the root span of an op run at worker budget 1.
const w1Root = "op.w1"

// spanMetrics derives the per-layer metrics the spans carry: every
// "<span>_s" metric as the median per-op self time in seconds,
// mds.iterations and swf.parse_mb_per_s from the spans' counts, and
// the w1.* single-threaded reference from the op rooted at w1Root,
// which the other medians leave out. An op whose solve counted its
// iterations ran its starts serially (see analyzeStaged); it gives
// mds.iterations and mds.classical_s and is left out of the rest. The
// ops the rest come from are returned.
func spanMetrics(spans []Span, defs []metricDef, out map[string]float64) map[int64]map[string]nameStats {
	timed := opStats(spans)
	countedOps := map[int64]map[string]nameStats{}
	for op, m := range timed {
		if _, ok := m[w1Root]; !ok {
			if m["mds.ssa"].count > 0 {
				countedOps[op] = m
				delete(timed, op)
			}
			continue
		}
		delete(timed, op)
		total := 0.0
		for _, st := range m {
			total += st.self
		}
		out["w1.op_s"] = total / 1e6
		out["w1.core.cityblock_s"] = m["core.cityblock"].self / 1e6
		out["w1.mds.ssa_s"] = m["mds.ssa"].dur / 1e6
		out["w1.mds.alienation_s"] = m["mds.alienation"].self / 1e6
	}
	selfS := func(st nameStats) float64 { return st.self / 1e6 }
	out["mds.classical_s"] = perOpMedian(countedOps, "mds.classical", selfS)
	out["mds.iterations"] = perOpMedian(countedOps, "mds.ssa", func(st nameStats) float64 { return float64(st.count) })
	for _, def := range defs {
		if _, ok := out[def.name]; ok {
			continue
		}
		if name, ok := strings.CutSuffix(def.name, "_s"); ok {
			out[def.name] = perOpMedian(timed, name, selfS)
		}
	}
	// Bytes per µs is MB/s.
	out["swf.parse_mb_per_s"] = perOpMedian(timed, "swf.parse", func(st nameStats) float64 { return float64(st.count) / st.dur })
	return timed
}

// layerOf maps a span name to its layer: the text before the first
// dot ("mds.ssa" → "mds"); roots ("op", "probe") are their own layer.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerShares returns each layer's share of the summed self time of
// all operations.
func layerShares(per map[int64]map[string]nameStats) map[string]float64 {
	byLayer := map[string]float64{}
	total := 0.0
	for _, m := range per {
		for name, st := range m {
			byLayer[layerOf(name)] += st.self
			total += st.self
		}
	}
	for l, v := range byLayer {
		byLayer[l] = v / max(total, 1e-9)
	}
	return byLayer
}

// writeTrace writes the spans as JSON lines (one span per line) and as
// a Chrome trace-event file, so one operation opens as a timeline in a
// trace viewer. It returns the two paths.
func writeTrace(dir, base string, spans []Span) (string, string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", "", err
	}
	jsonl := filepath.Join(dir, base+".spans.jsonl")
	chrome := filepath.Join(dir, base+".trace.json")
	if err := writeFile(jsonl, func(w *bufio.Writer) error {
		enc := json.NewEncoder(w)
		for _, s := range spans {
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return "", "", err
	}
	if err := writeFile(chrome, func(w *bufio.Writer) error {
		return json.NewEncoder(w).Encode(chromeTrace(spans))
	}); err != nil {
		return "", "", err
	}
	return jsonl, chrome, nil
}

func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int64          `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// chromeTrace lays the spans out as trace events: one process per
// operation, and within it one thread lane per stack of properly
// nested spans, so concurrent siblings (fanned-out work) sit on
// separate lanes instead of overlapping on one.
func chromeTrace(spans []Span) map[string]any {
	byOp := map[int64][]Span{}
	for _, s := range spans {
		byOp[s.Op] = append(byOp[s.Op], s)
	}
	events := make([]chromeEvent, 0, len(spans))
	ops := make([]int64, 0, len(byOp))
	for op := range byOp {
		ops = append(ops, op)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i] < ops[j] })
	for _, op := range ops {
		lanes := assignLanes(byOp[op])
		for i, s := range byOp[op] {
			events = append(events, chromeEvent{
				Name: s.Name, Cat: layerOf(s.Name), Ph: "X", Ts: s.Start, Dur: s.Dur(),
				Pid: op, Tid: lanes[i],
				Args: map[string]any{"span": s.ID, "parent": s.Parent, "op": s.Op},
			})
		}
	}
	return map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}
}

// assignLanes gives each span a lane such that the spans of one lane
// nest properly: a span joins the first lane whose innermost open span
// encloses it, or whose spans have all ended.
func assignLanes(spans []Span) []int {
	idx := make([]int, len(spans))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		sa, sb := spans[idx[a]], spans[idx[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	lanes := make([]int, len(spans))
	var stacks [][]Span
	for _, i := range idx {
		s := spans[i]
		placed := false
		for l := range stacks {
			st := stacks[l]
			for len(st) > 0 && st[len(st)-1].End <= s.Start {
				st = st[:len(st)-1]
			}
			if len(st) == 0 || st[len(st)-1].End >= s.End {
				stacks[l] = append(st, s)
				lanes[i] = l
				placed = true
				break
			}
			stacks[l] = st
		}
		if !placed {
			stacks = append(stacks, []Span{s})
			lanes[i] = len(stacks) - 1
		}
	}
	return lanes
}

// spanSummary renders per-layer self-time shares for the report.
func spanSummary(per map[int64]map[string]nameStats) string {
	shares := layerShares(per)
	layers := make([]string, 0, len(shares))
	for l := range shares {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
	var b strings.Builder
	b.WriteString("layer shares of the traced ops' self time:\n")
	for _, l := range layers {
		fmt.Fprintf(&b, "  %-12s %6.1f%%\n", l, 100*shares[l])
	}
	return b.String()
}
