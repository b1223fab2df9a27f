package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"

	"costream/internal/placement"
	"costream/internal/serve"
	"costream/internal/sim"
	"costream/internal/workload"
)

// predict-mix: POST /v1/predict under a fixed, seeded interleave. Every
// round of mixRound requests holds mixRound-1 byte-identical repeats
// drawn from a warm set primed before timing and one distinct request
// from the miss pool. The pool is larger than the server's LRU, and its
// requests come back in the same order only after every other pool
// request, so a pool request is always evicted before it recurs: misses
// miss by construction and the hit share is exactly 0.9.
const (
	mixWarm       = 64
	mixRound      = 10
	mixMissPool   = serve.DefaultCacheSize + 512
	mixPattern    = 512 // rounds before the interleave pattern repeats
	mixWarmup     = 64  // distinct requests sent once during set-up
	mixMissSample = 48  // misses checked against the reference
)

// mixInputs is the predict-mix request stream.
type mixInputs struct {
	warm, miss, warmup [][]byte
	missTags           []string
	// pattern[r][k] is the warm-set index of operation k of round r, or
	// -1 for the round's miss.
	pattern [][mixRound]int
}

// predictBody draws request i of a set as one tagged predict request.
func predictBody(gen *workload.Generator, rng *rand.Rand, i int, tag string) ([]byte, error) {
	q, c := shapedQuery(gen, i), shapedCluster(rng, i)
	tagCluster(c, tag)
	p, err := placement.RandomValid(rng, q, c)
	if err != nil {
		return nil, err
	}
	return json.Marshal(serve.PredictRequest{Query: q, Cluster: c, Placement: p})
}

func newMixInputs(seed int64) (*mixInputs, error) {
	gen := workload.New(workload.DefaultConfig(seed))
	rng := rand.New(rand.NewSource(seed ^ 0x6d6978))
	in := &mixInputs{}
	draw := func(n int, prefix string, dst *[][]byte, tags *[]string) error {
		for i := 0; i < n; i++ {
			tag := fmt.Sprintf("%s%d", prefix, i)
			b, err := predictBody(gen, rng, i, tag)
			if err != nil {
				return err
			}
			*dst = append(*dst, b)
			if tags != nil {
				*tags = append(*tags, tag)
			}
		}
		return nil
	}
	if err := draw(mixWarm, "w", &in.warm, nil); err != nil {
		return nil, err
	}
	if err := draw(mixMissPool, "m", &in.miss, &in.missTags); err != nil {
		return nil, err
	}
	if err := draw(mixWarmup, "u", &in.warmup, nil); err != nil {
		return nil, err
	}
	in.pattern = make([][mixRound]int, mixPattern)
	for r := range in.pattern {
		missAt := rng.Intn(mixRound)
		for k := range in.pattern[r] {
			in.pattern[r][k] = rng.Intn(mixWarm)
			if k == missAt {
				in.pattern[r][k] = -1
			}
		}
	}
	return in, nil
}

// op resolves operation i of the stream: its body, whether it is the
// round's miss, and its warm-set or miss-pool index.
func (in *mixInputs) op(i int) (body []byte, miss bool, idx int) {
	r, k := i/mixRound, i%mixRound
	if w := in.pattern[r%mixPattern][k]; w >= 0 {
		return in.warm[w], false, w
	}
	m := r % mixMissPool
	return in.miss[m], true, m
}

// post sends one request through the handler in-process.
func post(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return w
}

// mixState is one set-up's result.
type mixState struct {
	fx    *fixture
	in    *mixInputs
	srv   *serve.Server
	first [][]byte // first response to each warm request
}

func setupPredictMix(opts options, tr *tracer, ft *fixtureTimes) (*mixState, error) {
	fx, err := newFixture(opts.seed)
	if err != nil {
		return nil, err
	}
	ft.add(fx)
	in, err := newMixInputs(opts.seed)
	if err != nil {
		return nil, err
	}
	st := &mixState{fx: fx, in: in}
	if st.srv, err = newServer(fx, tr); err != nil {
		return nil, err
	}
	for _, b := range in.warmup {
		if w := post(st.srv, "/v1/predict", b); w.Code != http.StatusOK {
			return nil, fmt.Errorf("warm-up request: status %d: %s", w.Code, w.Body.Bytes())
		}
	}
	for _, b := range in.warm {
		w := post(st.srv, "/v1/predict", b)
		if w.Code != http.StatusOK {
			return nil, fmt.Errorf("priming request: status %d: %s", w.Code, w.Body.Bytes())
		}
		st.first = append(st.first, append([]byte(nil), w.Body.Bytes()...))
	}
	return st, nil
}

// newServer builds the server over the fixture model, wrapped for
// tracing when tr is set.
func newServer(fx *fixture, tr *tracer) (*serve.Server, error) {
	var pred placement.BatchPredictor = fx.pred
	if tr != nil {
		pred = &tracedPredictor{inner: fx.pred, tr: tr}
	}
	return serve.New(serve.Config{Predictor: pred, OptimizeWorkers: 1})
}

func runPredictMix(opts options) (*result, error) {
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	var ft fixtureTimes
	st, setupS, err := timedSetup(func() (*mixState, error) { return setupPredictMix(opts, tr, &ft) })
	if err != nil {
		return nil, err
	}
	in := st.in
	// sample holds the first timed rounds' misses for the reference check.
	type missResp struct {
		idx  int
		body []byte
	}
	sample := make([]missResp, mixMissSample)
	var badHit, wrongCache atomic.Int64
	var first int
	op := func(i int) error {
		body, miss, idx := in.op(i)
		tag := ""
		if miss {
			tag = in.missTags[idx]
		}
		id := tr.begin("serve.request", "", 0)
		tr.bind(tag, id)
		w := post(st.srv, "/v1/predict", body)
		tr.unbind(tag)
		tr.end(id)
		if w.Code != http.StatusOK {
			return fmt.Errorf("status %d", w.Code)
		}
		want := "hit"
		if miss {
			want = "miss"
			if r := (i - first) / mixRound; r >= 0 && r < mixMissSample {
				sample[r] = missResp{idx, append([]byte(nil), w.Body.Bytes()...)}
			}
		} else if checkSameBytes(st.first[idx], w.Body.Bytes()) != nil {
			badHit.Add(1)
		}
		if w.Header().Get("X-Costream-Cache") != want {
			wrongCache.Add(1)
		}
		return nil
	}
	first = int(closedLoop(opts.clients, mixRound, 0, warmUp, 0, op).ops)
	before, err := scrape(st.srv)
	if err != nil {
		return nil, err
	}
	tr.reset()
	ls := closedLoop(opts.clients, mixRound, first, opts.seconds, minSamplesFor(0.99), op)
	heap := heapLiveMB()
	after, err := scrape(st.srv)
	if err != nil {
		return nil, err
	}
	d := delta(before, after)

	res := &result{correct: true, attempted: ls.ops, failed: ls.failed, metrics: map[string]float64{}}
	res.check(checkHitShare(d, ls.ops))
	if n := badHit.Load(); n > 0 {
		res.check(fmt.Errorf("%d hit responses differ from the first response to their body", n))
	}
	if n := wrongCache.Load(); n > 0 {
		res.check(fmt.Errorf("%d responses report the wrong cache outcome", n))
	}
	for _, s := range sample {
		if s.body == nil {
			continue
		}
		var req serve.PredictRequest
		if err := json.Unmarshal(in.miss[s.idx], &req); err != nil {
			return nil, err
		}
		res.check(checkPredictResponse(st.fx.pred, req, s.body))
	}

	if !opts.trace {
		if err := res.endToEndMetrics(setupS, heap, ls); err != nil {
			return nil, err
		}
		runtime.KeepAlive(st)
		return res, nil
	}
	m := res.metrics
	reportThroughput("predict-mix", ls)
	sp := summarize(tr.closed())
	m["serve.request_us"] = sp["serve.request"].meanUS
	m["serve.self_us"] = sp["serve.request"].selfUS
	serveCounters(m, d)
	bodies := append(append([][]byte(nil), in.warm...), in.miss[:mixWarm]...)
	if m["serve.decode_us"], err = replayDecode(bodies, func() any { return new(serve.PredictRequest) }); err != nil {
		return nil, err
	}
	pairs, err := mixLadderPairs(in, opts.seed)
	if err != nil {
		return nil, err
	}
	ft.report(m)
	err = finishTraced(m, tracedRun{
		workload: "predict-mix", seed: opts.seed, res: res, tr: tr, spans: sp, timed: d,
		pred: st.fx.pred, train: st.fx.train, val: st.fx.val, trainCfg: st.fx.cfg, pairs: pairs,
		probe: func(pred placement.BatchPredictor) error {
			srv, err := serve.New(serve.Config{Predictor: pred, OptimizeWorkers: 1})
			if err != nil {
				return err
			}
			for _, b := range in.warmup[:16] {
				if w := post(srv, "/v1/predict", b); w.Code != http.StatusOK {
					return fmt.Errorf("probe request: status %d", w.Code)
				}
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// checkHitShare checks the cache outcome counters of the timed phase:
// exactly 9 hits in every 10 requests.
func checkHitShare(d map[string]float64, ops int64) error {
	hits := d[`costream_serve_cache_ops_total{outcome="hit"}`]
	misses := d[`costream_serve_cache_ops_total{outcome="miss"}`]
	if hits+misses != float64(ops) || hits*mixRound != float64(ops)*(mixRound-1) {
		return fmt.Errorf("cache saw %v hits and %v misses over %d requests, want a hit share of exactly 0.9", hits, misses, ops)
	}
	return nil
}

// mixLadderPairs draws the replay ladder's inputs from the stream's own
// miss requests: the first pool requests' (query, cluster) pairs, each
// with a tile of random valid placements.
func mixLadderPairs(in *mixInputs, seed int64) ([]ladderPair, error) {
	rng := rand.New(rand.NewSource(seed ^ 0x6c6164))
	var pairs []ladderPair
	for _, b := range in.miss[:ladderPairs] {
		var req serve.PredictRequest
		if err := json.Unmarshal(b, &req); err != nil {
			return nil, err
		}
		pairs = append(pairs, ladderPair{q: req.Query, c: req.Cluster, cands: append([]sim.Placement{req.Placement},
			placement.Enumerate(rng, req.Query, req.Cluster, ladderTile-1)...)})
	}
	return pairs, nil
}
