package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"

	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/serve"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

// optimize: POST /v1/optimize over distinct seeded (query, cluster)
// pairs with a 64-candidate budget; the four strategies rotate in a
// fixed order and the server scores with one worker, so placement search
// and tiled scoring do almost all the work.
const (
	optPool       = 256 // distinct requests, cycled
	optCandidates = 64
	optWarmup     = 8
	optCheck      = 16 // requests re-sent and checked after timing
)

// optInputs is the optimize request stream.
type optInputs struct {
	bodies [][]byte
	pairs  []ladderPair // the requests' query and cluster, for checks
	warmup [][]byte
}

func newOptInputs(seed int64) (*optInputs, error) {
	gen := workload.New(workload.DefaultConfig(seed))
	rng := rand.New(rand.NewSource(seed ^ 0x6f7074))
	in := &optInputs{}
	draw := func(i int) ([]byte, *stream.Query, *hardware.Cluster, error) {
		q, c := shapedQuery(gen, i), shapedCluster(rng, i)
		s := seed*optPool + int64(i)
		b, err := json.Marshal(serve.OptimizeRequest{
			Query: q, Cluster: c, Candidates: optCandidates,
			Strategy: strategies[i%len(strategies)], Seed: &s,
		})
		return b, q, c, err
	}
	for i := 0; i < optPool; i++ {
		b, q, c, err := draw(i)
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, b)
		in.pairs = append(in.pairs, ladderPair{q: q, c: c})
	}
	for i := 0; i < optWarmup; i++ {
		b, _, _, err := draw(optPool + i)
		if err != nil {
			return nil, err
		}
		in.warmup = append(in.warmup, b)
	}
	return in, nil
}

type optState struct {
	fx  *fixture
	in  *optInputs
	srv *serve.Server
}

func setupOptimize(opts options, tr *tracer, ft *fixtureTimes) (*optState, error) {
	fx, err := newFixture(opts.seed)
	if err != nil {
		return nil, err
	}
	ft.add(fx)
	in, err := newOptInputs(opts.seed)
	if err != nil {
		return nil, err
	}
	srv, err := newServer(fx, tr)
	if err != nil {
		return nil, err
	}
	for _, b := range in.warmup {
		if w := post(srv, "/v1/optimize", b); w.Code != http.StatusOK {
			return nil, fmt.Errorf("warm-up request: status %d: %s", w.Code, w.Body.Bytes())
		}
	}
	return &optState{fx: fx, in: in, srv: srv}, nil
}

func runOptimize(opts options) (*result, error) {
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	var ft fixtureTimes
	st, setupS, err := timedSetup(func() (*optState, error) { return setupOptimize(opts, tr, &ft) })
	if err != nil {
		return nil, err
	}
	in := st.in
	firstResp := make([][]byte, optCheck)
	var first int
	op := func(i int) error {
		id := tr.begin("serve.request", "", 0)
		w := post(st.srv, "/v1/optimize", in.bodies[i%optPool])
		tr.end(id)
		if w.Code != http.StatusOK {
			return fmt.Errorf("status %d", w.Code)
		}
		if k := i - first; k >= 0 && k < optCheck {
			firstResp[k] = append([]byte(nil), w.Body.Bytes()...)
		}
		return nil
	}
	first = int(closedLoop(opts.clients, 1, 0, warmUp, 0, op).ops)
	before, err := scrape(st.srv)
	if err != nil {
		return nil, err
	}
	tr.reset()
	ls := closedLoop(opts.clients, 1, first, opts.seconds, minSamplesFor(0.99), op)
	heap := heapLiveMB()
	after, err := scrape(st.srv)
	if err != nil {
		return nil, err
	}
	d := delta(before, after)

	res := &result{correct: true, attempted: ls.ops, failed: ls.failed, metrics: map[string]float64{}}
	for k, body := range firstResp {
		if body == nil {
			continue
		}
		i := (first + k) % optPool
		p := in.pairs[i]
		resp, err := checkOptimizeResponse(st.fx.pred, p.q, p.c, body)
		res.check(err)
		w := post(st.srv, "/v1/optimize", in.bodies[i])
		if w.Code != http.StatusOK {
			res.check(fmt.Errorf("repeated request %d: status %d", i, w.Code))
			continue
		}
		again, err := checkOptimizeResponse(st.fx.pred, p.q, p.c, w.Body.Bytes())
		res.check(err)
		res.check(checkSamePlacement(resp.Placement, again.Placement))
	}

	if !opts.trace {
		if err := res.endToEndMetrics(setupS, heap, ls); err != nil {
			return nil, err
		}
		runtime.KeepAlive(st)
		return res, nil
	}
	m := res.metrics
	reportThroughput("optimize", ls)
	sp := summarize(tr.closed())
	m["serve.request_us"] = sp["serve.request"].meanUS
	m["serve.self_us"] = sp["serve.request"].selfUS
	serveCounters(m, d)
	if m["serve.decode_us"], err = replayDecode(in.bodies[:64], func() any { return new(serve.OptimizeRequest) }); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(opts.seed ^ 0x6c6164))
	pairs := make([]ladderPair, ladderPairs)
	for i := range pairs {
		p := in.pairs[i]
		pairs[i] = ladderPair{q: p.q, c: p.c, cands: placement.Enumerate(rng, p.q, p.c, ladderTile)}
	}
	ft.report(m)
	err = finishTraced(m, tracedRun{
		workload: "optimize", seed: opts.seed, res: res, tr: tr, spans: sp, timed: d,
		pred: st.fx.pred, train: st.fx.train, val: st.fx.val, trainCfg: st.fx.cfg, pairs: pairs,
		probe: func(pred placement.BatchPredictor) error {
			srv, err := serve.New(serve.Config{Predictor: pred, OptimizeWorkers: 1})
			if err != nil {
				return err
			}
			for _, b := range in.bodies[:len(strategies)*2] {
				if w := post(srv, "/v1/optimize", b); w.Code != http.StatusOK {
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

// checkSamePlacement checks that a repeated request chose the same
// placement.
func checkSamePlacement(first, again sim.Placement) error {
	if len(first) != len(again) {
		return fmt.Errorf("repeated request chose %v, first %v", again, first)
	}
	for i := range first {
		if first[i] != again[i] {
			return fmt.Errorf("repeated request chose %v, first %v", again, first)
		}
	}
	return nil
}
