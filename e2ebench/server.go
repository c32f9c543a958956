package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"coplot/internal/core"
	"coplot/internal/corpus"
	"coplot/internal/mds"
	"coplot/internal/obs"
	"coplot/internal/par"
	"coplot/internal/service"
	"coplot/internal/swf"
	"coplot/internal/workload"
	"coplot/pkg/coplotclient"
)

// Server workloads run at the host's size: a worker budget of
// serverJobs and serverClients closed-loop clients, each with its own
// connection.
const (
	serverJobs    = 2
	serverClients = 2
	drainTimeout  = 10 * time.Second
)

// server is an in-process coplotd behind a loopback listener, driven
// through the typed client.
type server struct {
	svc    *service.Service
	stop   chan struct{}
	done   chan error
	tr     *http.Transport
	client *coplotclient.Client
	events *eventLog // nil when untraced
}

// startServer builds the service and serves it on a loopback port. A
// traced server hands the event log to service.Config.Sink.
func startServer(cfg service.Config, traced bool) (*server, error) {
	s := &server{stop: make(chan struct{}), done: make(chan error, 1)}
	if traced {
		s.events = newEventLog()
		cfg.Sink = s.events
	}
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.svc = svc
	go func() { s.done <- svc.Serve(ln, s.stop, drainTimeout) }()
	s.tr = &http.Transport{MaxIdleConnsPerHost: serverClients, MaxConnsPerHost: serverClients}
	s.client = coplotclient.New("http://"+ln.Addr().String(), &http.Client{Transport: s.tr})
	return s, nil
}

// close drains the server and waits for it to stop.
func (s *server) close() error {
	close(s.stop)
	err := <-s.done
	s.tr.CloseIdleConnections()
	return err
}

// classify maps a client error to an outcome: a 429 is a refusal.
func classify(err error) outcome {
	var ce *coplotclient.Error
	if errors.As(err, &ce) && ce.Status == http.StatusTooManyRequests {
		return opRefused
	}
	return opFailed
}

// manifest fetches GET /metrics and returns the decoded manifest and
// the body's size.
func (s *server) manifest(ctx context.Context) (*obs.Manifest, int, error) {
	body, _, err := s.client.Do(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, 0, err
	}
	var m obs.Manifest
	if err := json.Unmarshal(body, &m); err != nil {
		return nil, 0, err
	}
	return &m, len(body), nil
}

// reqTracer records client request spans joined to the server's task
// intervals, and the latency split that joining gives.
type reqTracer struct {
	rec       *Recorder
	events    *eventLog
	mu        sync.Mutex // guards the samples below
	computeMS []float64  // server task time of requests the server computed
	overMS    []float64  // client latency minus server task time
	refused   int
	ops       int
}

func newReqTracer(rec *Recorder, events *eventLog) *reqTracer {
	return &reqTracer{rec: rec, events: events}
}

// request records one finished request: its client span as the op's
// root and the server task it joined (by cache key) as a child.
func (t *reqTracer) request(op int64, start, end time.Time, meta *coplotclient.Meta, o outcome) {
	if t == nil {
		return
	}
	root := t.rec.Add(op, 0, "op", start, end)
	latency := float64(end.Sub(start).Nanoseconds()) / 1e6
	compute := 0.0
	if meta != nil && meta.Key != "" {
		if task, ok := t.events.claim(meta.Key); ok {
			t.rec.Add(op, root, "service.compute", task.start, task.end)
			compute = float64(task.end.Sub(task.start).Nanoseconds()) / 1e6
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	if o == opRefused {
		t.refused++
	}
	if meta != nil && meta.Key != "" && o == opOK {
		if !meta.CacheHit {
			t.computeMS = append(t.computeMS, compute)
		}
		t.overMS = append(t.overMS, latency-compute)
	}
}

// layers reports the serving-layer metrics of the traced loop.
func (t *reqTracer) layers(ctx context.Context, s *server, out map[string]float64) error {
	t.mu.Lock()
	for k, v := range s.events.storeMetrics(t.ops) {
		out[k] = v
	}
	if len(t.computeMS) > 0 {
		out["service.compute_ms_p50"] = median(t.computeMS)
	}
	if len(t.overMS) > 0 {
		out["service.overhead_ms_p50"] = median(t.overMS)
	}
	out["service.refused"] = float64(t.refused)
	t.mu.Unlock()
	m, size, err := s.manifest(ctx)
	if err != nil {
		return err
	}
	out["obs.metrics_bytes"] = float64(size)
	if m.Corpus != nil {
		out["corpus.entries"] = float64(m.Corpus.Entries)
		if m.Corpus.Matches > 0 {
			out["corpus.match_ms_mean"] = m.Corpus.MatchMS / float64(m.Corpus.Matches)
		}
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// probe is the traced record of the library calls a reference check
// makes; a nil probe records nothing. A joint embedding is also solved
// a second time under op iterOp, counting the solver's iterations.
type probe struct {
	rec              *Recorder
	op, root, iterOp int64
}

// newProbe opens a probe on two fresh ops drawn from ops.
func newProbe(rec *Recorder, ops *atomic.Int64) *probe {
	op := ops.Add(1)
	return &probe{rec: rec, op: op, root: rec.Begin(op, 0, "probe"), iterOp: ops.Add(1)}
}

func (p *probe) begin(name string) int64 {
	if p == nil {
		return 0
	}
	return p.rec.Begin(p.op, p.root, name)
}

func (p *probe) end(id int64) {
	if p != nil {
		p.rec.End(id)
	}
}

// parseLog is swf.Parse under a probe span.
func (p *probe) parseLog(name string, data []byte) (*swf.Log, error) {
	id := p.begin("swf.parse")
	log, err := swf.Parse(bytes.NewReader(data))
	if p != nil {
		p.rec.EndCount(id, int64(len(data)))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return log, nil
}

// characterize is swf.Parse then workload.Compute, under probe spans.
func (p *probe) characterize(name string, data []byte, spec logSpec) (workload.Variables, *swf.Log, error) {
	log, err := p.parseLog(name, data)
	if err != nil {
		return workload.Variables{}, nil, err
	}
	m, err := spec.machine()
	if err != nil {
		return workload.Variables{}, nil, err
	}
	id := p.begin("workload.compute")
	v, err := workload.Compute(name, log, m)
	p.end(id)
	return v, log, err
}

// libraryMatch is the library path of POST /v1/match: the query ranked
// against entries by corpus.Match, rendered as the server renders it.
// Traced, the joint embedding also runs stage by stage, and its Θ must
// equal the match's.
func (p *probe) libraryMatch(ctx context.Context, entries []*corpus.Entry, name string, data []byte, spec logSpec) ([]byte, error) {
	q, _, err := p.characterize(name, data, spec)
	if err != nil {
		return nil, err
	}
	b := par.NewBudget(serverJobs)
	id := p.begin("corpus.match")
	res, err := corpus.Match(ctx, entries, q, corpus.MatchOptions{Seed: 7, Par: b})
	p.end(id)
	if err != nil {
		return nil, err
	}
	if p != nil {
		rows := make([]workload.Variables, 0, len(entries)+1)
		for _, e := range entries {
			vals := make(map[string]float64, len(e.Vars))
			for i, code := range workload.DatasetVars {
				vals[code] = e.Vars[i]
			}
			rows = append(rows, workload.Variables{Name: e.Name, Values: vals})
		}
		tab, err := workload.BuildTable(append(rows, q), workload.DatasetVars)
		if err != nil {
			return nil, err
		}
		ds := &core.Dataset{Observations: tab.Observations, Variables: tab.Codes, X: tab.Data}
		for _, count := range []bool{false, true} {
			op, parent := p.op, p.root
			if count {
				op = p.iterOp
				parent = p.rec.Begin(op, 0, "probe")
			}
			staged, err := analyzeStaged(ctx, p.rec, op, parent, ds, mds.Options{Seed: 7, Par: b}, count)
			if count {
				p.rec.End(parent)
			}
			if err != nil {
				return nil, err
			}
			if staged.Alienation != res.Alienation {
				return nil, fmt.Errorf("staged joint embedding Θ %v, corpus.Match %v", staged.Alienation, res.Alienation)
			}
		}
	}
	data, err = json.Marshal(res)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
