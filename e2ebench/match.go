package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"coplot/internal/corpus"
	"coplot/internal/rng"
	"coplot/internal/service"
	"coplot/pkg/coplotclient"
)

// Match workload sizing: set-up admits matchUploads generated logs on
// top of the 15 seed entries; each client then cycles through
// matchCycle ops, the last two an admit and a delete of one entry. The
// logs a client queries with and writes are generated in set-up, pools
// of matchQueries and matchWrites per client that the ops cycle
// through under names of their own, so every request is distinct and
// the measured loop spends nothing on generating logs.
const (
	matchUploads = 100
	matchCycle   = 10
	matchQueries = 16
	matchWrites  = 4
	matchMinJobs = 1500
	matchMaxJobs = 2500
)

// pooled is a log generated in set-up for the loop to send.
type pooled struct {
	spec logSpec
	body []byte
}

// matchInst drives /v1/match with distinct queries against a grown
// corpus, mixed with admit/delete pairs that change the corpus ID set.
type matchInst struct {
	failLog
	srv     *server
	seed    uint64
	uploads []logSpec
	bodies  [][]byte
	base    int // corpus size after set-up
	queries [serverClients][]pooled
	writes  [serverClients][]pooled
	rec     *Recorder
	tracer  *reqTracer
	ops     atomic.Int64

	mu      sync.Mutex
	theta   []float64
	pending [serverClients]string // admitted entry each client still has to delete
}

func setupMatch(ctx context.Context, cfg runConfig, rec *Recorder) (instance, error) {
	srv, err := startServer(service.Config{Jobs: serverJobs}, rec != nil)
	if err != nil {
		return nil, err
	}
	m := &matchInst{srv: srv, seed: cfg.seed, rec: rec,
		// The grown corpus is the same for every seed; the seed draws the
		// queries and the written entries.
		uploads: sweep(0, "corpus", matchUploads, matchMinJobs, matchMaxJobs)}
	if rec != nil {
		m.tracer = newReqTracer(rec, srv.events)
	}
	for _, sp := range m.uploads {
		body, err := sp.generate()
		if err == nil {
			err = m.admit(ctx, sp, body)
		}
		if err != nil {
			srv.close()
			return nil, fmt.Errorf("admit %s: %w", sp.Name, err)
		}
		m.bodies = append(m.bodies, body)
	}
	for c := 0; c < serverClients; c++ {
		if m.queries[c], err = m.pool("query", c, matchQueries); err == nil {
			m.writes[c], err = m.pool("write", c, matchWrites)
		}
		if err != nil {
			srv.close()
			return nil, err
		}
	}
	idx, _, err := srv.client.CorpusList(ctx)
	if err != nil {
		srv.close()
		return nil, err
	}
	m.base = idx.Total
	return m, nil
}

// admit uploads one log and checks the entry ID the server derived.
func (m *matchInst) admit(ctx context.Context, sp logSpec, body []byte) error {
	e, _, err := m.srv.client.CorpusAdmit(ctx, sp.Name, body, machineOptions(sp))
	if err != nil {
		return err
	}
	mach, err := sp.machine()
	if err != nil {
		return err
	}
	if want := corpus.EntryID(sp.Name, mach, body); e.ID != want {
		return fmt.Errorf("entry ID %s, want %s", e.ID, want)
	}
	return nil
}

func machineOptions(sp logSpec) coplotclient.MachineOptions {
	return coplotclient.MachineOptions{Procs: sp.Procs, Sched: sp.Sched, Alloc: sp.Alloc}
}

// opSpec is the recipe of a client's i-th pooled log of a kind: a shape
// fixed by kind and a model that rotates with i.
func (m *matchInst) opSpec(kind string, client, i int) logSpec {
	s := sweep(rng.Derive(m.seed, fmt.Sprintf("%s-%d-%d", kind, client, i)), kind, 1, matchMinJobs, matchMaxJobs)[0]
	s.Model = sweepModels[(client*matchCycle+i)%len(sweepModels)]
	return s
}

// pool generates a client's n logs of a kind.
func (m *matchInst) pool(kind string, client, n int) ([]pooled, error) {
	out := make([]pooled, n)
	for i := range out {
		sp := m.opSpec(kind, client, i)
		body, err := sp.generate()
		if err != nil {
			return nil, err
		}
		out[i] = pooled{sp, body}
	}
	return out, nil
}

// opLog is the pooled log a client's seq-th op sends, named for that op.
func opLog(pool []pooled, kind string, client, seq int) pooled {
	p := pool[seq%len(pool)]
	p.spec.Name = fmt.Sprintf("%s-c%d-%05d-%s", kind, client, seq, p.spec.Model)
	return p
}

func (m *matchInst) clients() int { return serverClients }

func (m *matchInst) op(ctx context.Context, client, seq int) (outcome, time.Duration) {
	m.mu.Lock()
	pending := m.pending[client]
	m.mu.Unlock()
	switch {
	case seq%matchCycle == matchCycle-2:
		return m.writeOp(ctx, client, seq)
	case seq%matchCycle == matchCycle-1 && pending != "":
		return m.deleteOp(ctx, client, pending)
	}
	return m.matchOp(ctx, client, seq)
}

func (m *matchInst) matchOp(ctx context.Context, client, seq int) (outcome, time.Duration) {
	q := opLog(m.queries[client], "query", client, seq)
	sp, body := q.spec, q.body
	mq := machineQuery(sp)
	mq.Set("name", sp.Name)
	t0 := time.Now()
	resp, meta, err := m.srv.client.Do(ctx, http.MethodPost, "/v1/match?"+mq.Encode(), "text/plain", body)
	t1 := time.Now()
	o := opOK
	if err != nil {
		o = m.fail(classify(err), "match %s: %v", sp.Name, err)
	} else {
		o = m.checkMatch(sp.Name, resp)
	}
	m.tracer.request(m.ops.Add(1), t0, t1, meta, o)
	return o, t1.Sub(t0)
}

// checkMatch checks a match answer's shape: the query's label, a
// corpus between the set-up size and one extra entry per client, every
// entry ranked once, nearest first, and Θ in (0, 1).
func (m *matchInst) checkMatch(name string, resp []byte) outcome {
	var r corpus.MatchResult
	if err := json.Unmarshal(resp, &r); err != nil {
		return m.fail(opWrong, "match %s: %v", name, err)
	}
	switch {
	case r.Query != name:
		return m.fail(opWrong, "match %s: query labelled %q", name, r.Query)
	case r.CorpusSize < m.base || r.CorpusSize > m.base+serverClients:
		return m.fail(opWrong, "match %s: corpus of %d, set-up left %d", name, r.CorpusSize, m.base)
	case len(r.Neighbors) != r.CorpusSize || len(r.Points) != r.CorpusSize+1:
		return m.fail(opWrong, "match %s: %d neighbors, %d points for a corpus of %d", name, len(r.Neighbors), len(r.Points), r.CorpusSize)
	case !sort.SliceIsSorted(r.Neighbors, func(i, j int) bool { return r.Neighbors[i].Distance < r.Neighbors[j].Distance }):
		return m.fail(opWrong, "match %s: neighbors not nearest first", name)
	case !(r.Alienation > 0 && r.Alienation < 1):
		return m.fail(opWrong, "match %s: alienation %v", name, r.Alienation)
	}
	m.mu.Lock()
	m.theta = append(m.theta, r.Alienation)
	m.mu.Unlock()
	return opOK
}

func (m *matchInst) writeOp(ctx context.Context, client, seq int) (outcome, time.Duration) {
	w := opLog(m.writes[client], "write", client, seq/matchCycle)
	sp, body := w.spec, w.body
	mach, err := sp.machine()
	if err != nil {
		return m.fail(opFailed, "%s: %v", sp.Name, err), 0
	}
	t0 := time.Now()
	e, meta, err := m.srv.client.CorpusAdmit(ctx, sp.Name, body, machineOptions(sp))
	t1 := time.Now()
	o := opOK
	switch {
	case err != nil:
		o = m.fail(classify(err), "admit %s: %v", sp.Name, err)
	case e.ID != corpus.EntryID(sp.Name, mach, body):
		o = m.fail(opWrong, "admit %s: entry ID %s", sp.Name, e.ID)
	default:
		m.mu.Lock()
		m.pending[client] = e.ID
		m.mu.Unlock()
	}
	m.tracer.request(m.ops.Add(1), t0, t1, meta, o)
	return o, t1.Sub(t0)
}

func (m *matchInst) deleteOp(ctx context.Context, client int, id string) (outcome, time.Duration) {
	t0 := time.Now()
	meta, err := m.srv.client.CorpusDelete(ctx, id)
	t1 := time.Now()
	o := opOK
	if err != nil {
		o = m.fail(classify(err), "delete %s: %v", id, err)
	} else {
		m.mu.Lock()
		m.pending[client] = ""
		m.mu.Unlock()
	}
	m.tracer.request(m.ops.Add(1), t0, t1, meta, o)
	return o, t1.Sub(t0)
}

// verify deletes the entries the loop left admitted, then checks that
// the corpus is back to its set-up size and that a fresh match — asked
// twice — answers byte-identically, from the cache the second time,
// and equal to corpus.Match called directly on the same entries.
func (m *matchInst) verify(ctx context.Context) (int, []string) {
	var fails []string
	m.mu.Lock()
	pending := m.pending
	m.pending = [serverClients]string{}
	m.mu.Unlock()
	for _, id := range pending {
		if id == "" {
			continue
		}
		if _, err := m.srv.client.CorpusDelete(ctx, id); err != nil {
			fails = append(fails, fmt.Sprintf("clean-up delete %s: %v", id, err))
		}
	}
	if idx, _, err := m.srv.client.CorpusList(ctx); err != nil {
		fails = append(fails, fmt.Sprintf("corpus list: %v", err))
	} else if idx.Total != m.base {
		fails = append(fails, fmt.Sprintf("corpus holds %d entries after the run, set-up left %d", idx.Total, m.base))
	}

	var p *probe
	if m.rec != nil {
		p = newProbe(m.rec, &m.ops)
		defer m.rec.End(p.root)
	}
	sp := m.opSpec("reference", 0, 0)
	body, err := sp.generate()
	if err != nil {
		return 3, append(fails, fmt.Sprintf("reference query: %v", err))
	}
	mq := machineQuery(sp)
	mq.Set("name", sp.Name)
	first, _, err1 := m.srv.client.Do(ctx, http.MethodPost, "/v1/match?"+mq.Encode(), "text/plain", body)
	again, meta, err2 := m.srv.client.Do(ctx, http.MethodPost, "/v1/match?"+mq.Encode(), "text/plain", body)
	switch {
	case err1 != nil || err2 != nil:
		fails = append(fails, fmt.Sprintf("reference match: %v %v", err1, err2))
	case digest(first) != digest(again) || !meta.CacheHit:
		fails = append(fails, "repeated reference match: not a byte-identical cache hit")
	}
	entries, err := m.entries()
	if err != nil {
		return 3, append(fails, fmt.Sprintf("reference corpus: %v", err))
	}
	want, err := p.libraryMatch(ctx, entries, sp.Name, body, sp)
	switch {
	case err != nil:
		fails = append(fails, fmt.Sprintf("reference library match: %v", err))
	case digest(want) != digest(first):
		fails = append(fails, "reference match differs from corpus.Match")
	}
	return 3, fails
}

// entries rebuilds the set-up corpus on the library side: the seed
// entries plus every upload, characterized as the server admits them.
func (m *matchInst) entries() ([]*corpus.Entry, error) {
	list, err := corpus.SeedEntries(0)
	if err != nil {
		return nil, err
	}
	for i, sp := range m.uploads {
		v, log, err := (*probe)(nil).characterize(sp.Name, m.bodies[i], sp)
		if err != nil {
			return nil, err
		}
		mach, err := sp.machine()
		if err != nil {
			return nil, err
		}
		list = append(list, corpus.FromVariables(corpus.EntryID(sp.Name, mach, m.bodies[i]), corpus.SourceUpload, len(log.Jobs), v))
	}
	return corpus.Merge(list), nil
}

func (m *matchInst) alienation() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return median(m.theta)
}

func (m *matchInst) layers(ctx context.Context, out map[string]float64) {
	if m.tracer == nil {
		return
	}
	if err := m.tracer.layers(ctx, m.srv, out); err != nil {
		m.fail(opFailed, "metrics: %v", err)
	}
}

func (m *matchInst) close() error { return m.srv.close() }
