package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"coplot/internal/core"
	"coplot/internal/corpus"
	"coplot/internal/mds"
	"coplot/internal/par"
	"coplot/internal/rng"
	"coplot/internal/service"
	"coplot/internal/swf"
	"coplot/internal/validate"
	"coplot/internal/workload"
)

// Serve workload sizing: serveLogs generated logs feed a variables,
// validate, hurst and match request each, next to serveGenerate
// generate and serveAnalyze analyze requests; the response
// cache holds serveCacheBytes, less than the key set's responses, so
// Zipf-skewed reuse (exponent serveZipfS) gives hits, misses and
// evictions.
const (
	serveLogs       = 12
	serveGenerate   = 12
	serveAnalyze    = 8
	serveCacheBytes = 1 << 20
	serveZipfS      = 1.1
	// analyzeBoundary fixes the multipart boundary so an analyze
	// request's body, like every other input, depends on the seed only.
	analyzeBoundary = "e2ebench-analyze-boundary"
)

// request is one key of the serve mix: a fixed request and the library
// call that must produce its response body.
type request struct {
	endpoint string
	path     string // path and query
	ctype    string
	body     []byte
	ref      func(ctx context.Context, p *probe) ([]byte, error)
}

// serveInst drives an in-process coplotd with a Zipf-skewed mix over
// every cacheable endpoint the server has (except scale-load).
type serveInst struct {
	failLog
	srv    *server
	reqs   []request
	keys   []*zipfKeys
	rec    *Recorder
	tracer *reqTracer
	ops    atomic.Int64

	mu    sync.Mutex
	first map[int]string  // request index → digest of its first response
	theta map[int]float64 // match request index → alienation
}

func setupServe(ctx context.Context, cfg runConfig, rec *Recorder) (instance, error) {
	reqs, err := serveRequests(cfg.seed)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(service.Config{Jobs: serverJobs, CacheBytes: serveCacheBytes}, rec != nil)
	if err != nil {
		return nil, err
	}
	s := &serveInst{srv: srv, reqs: reqs, rec: rec, first: map[int]string{}, theta: map[int]float64{}}
	for c := 0; c < serverClients; c++ {
		s.keys = append(s.keys, newZipfKeys(cfg.seed, c, len(reqs), serveZipfS))
	}
	if rec != nil {
		s.tracer = newReqTracer(rec, srv.events)
	}
	return s, nil
}

// serveRequests builds the key set from the seed, in Zipf rank order.
func serveRequests(seed uint64) ([]request, error) {
	specs := sweep(seed, "serve", serveLogs, 1000, 3000)
	logs := make([][]byte, len(specs))
	for i, sp := range specs {
		var err error
		if logs[i], err = sp.generate(); err != nil {
			return nil, err
		}
	}
	var reqs []request
	for i, sp := range specs {
		sp, data := sp, logs[i]
		mq := machineQuery(sp)
		mq.Set("name", sp.Name)
		reqs = append(reqs,
			request{endpoint: "variables", path: "/v1/variables?" + mq.Encode(), ctype: "text/plain", body: data,
				ref: func(ctx context.Context, p *probe) ([]byte, error) {
					log, err := p.parseLog(sp.Name, data)
					if err != nil {
						return nil, err
					}
					m, err := sp.machine()
					if err != nil {
						return nil, err
					}
					id := p.begin("workload.compute")
					text, err := service.VariablesReport(sp.Name, log, m)
					p.end(id)
					return []byte(text), err
				}},
			request{endpoint: "validate", path: "/v1/validate?" + mq.Encode(), ctype: "text/plain", body: data,
				ref: func(ctx context.Context, p *probe) ([]byte, error) {
					log, err := p.parseLog(sp.Name, data)
					if err != nil {
						return nil, err
					}
					m, err := sp.machine()
					if err != nil {
						return nil, err
					}
					text, _ := service.ValidateReport(sp.Name, log, m, validate.Options{})
					return []byte(text), nil
				}},
			request{endpoint: "hurst", path: "/v1/hurst?" + url.Values{"name": {sp.Name}}.Encode(), ctype: "text/plain", body: data,
				ref: func(ctx context.Context, p *probe) ([]byte, error) {
					log, err := p.parseLog(sp.Name, data)
					if err != nil {
						return nil, err
					}
					id := p.begin("selfsim.estimate")
					text, err := service.HurstReport(ctx, sp.Name, log, par.NewBudget(serverJobs), nil)
					p.end(id)
					return []byte(text), err
				}},
		)
		qname := "q-" + sp.Name
		mq = machineQuery(sp)
		mq.Set("name", qname)
		reqs = append(reqs, request{endpoint: "match", path: "/v1/match?" + mq.Encode(), ctype: "text/plain", body: data,
			ref: func(ctx context.Context, p *probe) ([]byte, error) {
				seeds, err := corpus.SeedEntries(0)
				if err != nil {
					return nil, err
				}
				return p.libraryMatch(ctx, corpus.Merge(seeds), qname, data, sp)
			}})
	}

	// As in sweep, the mix's shape is fixed and the seed draws contents.
	shape := rng.New(rng.Derive(0, "serve-mix"))
	seeds := rng.New(rng.Derive(seed, "serve-mix"))
	for i := 0; i < serveGenerate; i++ {
		model := sweepModels[i%len(sweepModels)]
		procs := sweepProcs[shape.Intn(len(sweepProcs))]
		n := 1000 + shape.Intn(2001)
		gseed := 1 + seeds.Uint64()%1_000_000
		q := url.Values{}
		q.Set("model", model)
		q.Set("procs", strconv.Itoa(procs))
		q.Set("n", strconv.Itoa(n))
		q.Set("seed", strconv.FormatUint(gseed, 10))
		reqs = append(reqs, request{endpoint: "generate", path: "/v1/generate?" + q.Encode(),
			ref: func(ctx context.Context, p *probe) ([]byte, error) {
				gen, err := service.ModelByName(model, procs)
				if err != nil {
					return nil, err
				}
				id := p.begin("models.generate")
				log := gen.Generate(rng.New(gseed), n)
				p.end(id)
				var buf bytes.Buffer
				err = swf.Write(&buf, log)
				return buf.Bytes(), err
			}})
	}
	for i := 0; i < serveAnalyze; i++ {
		pick := shape.Perm(len(specs))[:3+i%6]
		var body bytes.Buffer
		mw := multipart.NewWriter(&body)
		if err := mw.SetBoundary(analyzeBoundary); err != nil {
			return nil, err
		}
		for _, k := range pick {
			part, err := mw.CreateFormFile("log", specs[k].Name)
			if err != nil {
				return nil, err
			}
			if _, err := part.Write(logs[k]); err != nil {
				return nil, err
			}
		}
		if err := mw.Close(); err != nil {
			return nil, err
		}
		reqs = append(reqs, request{endpoint: "analyze", path: "/v1/analyze", ctype: mw.FormDataContentType(), body: body.Bytes(),
			ref: func(ctx context.Context, p *probe) ([]byte, error) {
				return libraryAnalyze(ctx, p, specs, logs, pick)
			}})
	}
	return interleave(reqs, serveRankOrder), nil
}

// serveRankOrder deals the endpoints out over the Zipf ranks, so every
// seed gives each endpoint the same share of the traffic and only the
// inputs behind the keys change.
var serveRankOrder = []string{"variables", "hurst", "match", "generate", "validate", "analyze"}

// interleave orders reqs round-robin over the endpoints in order,
// keeping each endpoint's requests in their original order.
func interleave(reqs []request, order []string) []request {
	by := map[string][]request{}
	for _, rq := range reqs {
		by[rq.endpoint] = append(by[rq.endpoint], rq)
	}
	out := make([]request, 0, len(reqs))
	for len(out) < len(reqs) {
		for _, ep := range order {
			if q := by[ep]; len(q) > 0 {
				out = append(out, q[0])
				by[ep] = q[1:]
			}
		}
	}
	return out
}

// machineQuery renders a log's machine as request options.
func machineQuery(sp logSpec) url.Values {
	q := url.Values{}
	q.Set("procs", strconv.Itoa(sp.Procs))
	q.Set("sched", sp.Sched)
	q.Set("alloc", sp.Alloc)
	return q
}

// libraryAnalyze is the coplot CLI path of an analyze request: the
// logs characterized on the CLI's default machine and mapped with the
// CLI's default options.
func libraryAnalyze(ctx context.Context, p *probe, specs []logSpec, logs [][]byte, pick []int) ([]byte, error) {
	m, err := service.ParseMachine("cli", 128, "easy", "unlimited")
	if err != nil {
		return nil, err
	}
	rows := make([]workload.Variables, 0, len(pick))
	for _, k := range pick {
		log, err := p.parseLog(specs[k].Name, logs[k])
		if err != nil {
			return nil, err
		}
		id := p.begin("workload.compute")
		v, err := workload.Compute(specs[k].Name, log, m)
		p.end(id)
		if err != nil {
			return nil, err
		}
		rows = append(rows, v)
	}
	ds, err := service.DatasetFromVariables(rows)
	if err != nil {
		return nil, err
	}
	id := p.begin("core.analyze")
	res, err := core.AnalyzeContext(ctx, ds, core.Options{MDS: mds.Options{Seed: 7, Par: par.NewBudget(serverJobs)}})
	p.end(id)
	if err != nil {
		return nil, err
	}
	id = p.begin("core.render")
	text := res.Report()
	p.end(id)
	return []byte(text), nil
}

func (s *serveInst) clients() int { return serverClients }

func (s *serveInst) op(ctx context.Context, client, _ int) (outcome, time.Duration) {
	k := s.keys[client].next()
	rq := s.reqs[k]
	t0 := time.Now()
	body, meta, err := s.srv.client.Do(ctx, http.MethodPost, rq.path, rq.ctype, rq.body)
	t1 := time.Now()
	o := opOK
	if err != nil {
		o = s.fail(classify(err), "%s: %v", rq.endpoint, err)
	} else {
		o = s.checkBody(k, body)
	}
	if s.tracer != nil {
		s.tracer.request(s.ops.Add(1), t0, t1, meta, o)
	}
	return o, t1.Sub(t0)
}

// checkBody holds every response to the first response of its key.
func (s *serveInst) checkBody(k int, body []byte) outcome {
	d := digest(body)
	s.mu.Lock()
	defer s.mu.Unlock()
	want, seen := s.first[k]
	if !seen {
		s.first[k] = d
		if s.reqs[k].endpoint == "match" {
			var m corpus.MatchResult
			if err := json.Unmarshal(body, &m); err != nil {
				return s.fail(opWrong, "match: %v", err)
			}
			s.theta[k] = m.Alienation
		}
		return opOK
	}
	if d != want {
		return s.fail(opWrong, "%s: response differs from the key's first response", s.reqs[k].endpoint)
	}
	return opOK
}

// verify compares one sampled request per endpoint — the most
// requested key of each — with its direct library call.
func (s *serveInst) verify(ctx context.Context) (int, []string) {
	var p *probe
	if s.rec != nil {
		p = newProbe(s.rec, &s.ops)
		defer s.rec.End(p.root)
	}
	checks := 0
	var fails []string
	sampled := map[string]bool{}
	for k, rq := range s.reqs {
		if sampled[rq.endpoint] {
			continue
		}
		sampled[rq.endpoint] = true
		checks++
		s.mu.Lock()
		want, seen := s.first[k]
		s.mu.Unlock()
		if !seen {
			body, _, err := s.srv.client.Do(ctx, http.MethodPost, rq.path, rq.ctype, rq.body)
			if err != nil {
				fails = append(fails, fmt.Sprintf("%s reference request: %v", rq.endpoint, err))
				continue
			}
			want = digest(body)
		}
		got, err := rq.ref(ctx, p)
		switch {
		case err != nil:
			fails = append(fails, fmt.Sprintf("%s library call: %v", rq.endpoint, err))
		case digest(got) != want:
			fails = append(fails, fmt.Sprintf("%s: response differs from the library call", rq.endpoint))
		}
	}
	return checks, fails
}

// alienation is the median Θ of the distinct match responses.
func (s *serveInst) alienation() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	xs := make([]float64, 0, len(s.theta))
	for _, v := range s.theta {
		xs = append(xs, v)
	}
	return median(xs)
}

func (s *serveInst) layers(ctx context.Context, out map[string]float64) {
	if s.tracer == nil {
		return
	}
	if err := s.tracer.layers(ctx, s.srv, out); err != nil {
		s.fail(opFailed, "metrics: %v", err)
	}
}

func (s *serveInst) close() error { return s.srv.close() }
