package main

import (
	"bytes"
	"container/list"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"testing"

	"costream/internal/core"
	"costream/internal/fleet"
	"costream/internal/placement"
	"costream/internal/serve"
	"costream/internal/sim"
)

var testFixture = sync.OnceValues(func() (*fixture, error) { return newFixture(7) })

func fixtureT(t *testing.T) *fixture {
	t.Helper()
	fx, err := testFixture()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, q := range []float64{0.5, 0.9, 0.99} {
		n := minSamplesFor(q)
		v, err := percentile(ascending(n), q)
		if err != nil {
			t.Fatalf("p%g of %d samples: %v", q*100, n, err)
		}
		if beyond := n - int(v); beyond < minTail {
			t.Errorf("p%g of %d samples = %v leaves %d samples beyond it", q*100, n, v, beyond)
		}
		few := int(float64(minTail)/(1-q)) - minTail/2
		if _, err := percentile(ascending(few), q); err == nil {
			t.Errorf("p%g of %d samples was reported with fewer than %d beyond it", q*100, few, minTail)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples was reported")
	}
}

// lru mirrors the server's cache policy: capacity entries, a hit moves
// the entry to the front, an insert evicts from the back.
type lru struct {
	capacity int
	order    *list.List
	at       map[string]*list.Element
}

func (c *lru) get(k string) bool {
	if e, ok := c.at[k]; ok {
		c.order.MoveToFront(e)
		return true
	}
	return false
}

func (c *lru) add(k string) {
	c.at[k] = c.order.PushFront(k)
	if c.order.Len() > c.capacity {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.at, back.Value.(string))
	}
}

func TestMixStreamMissesNeverRecurWithinCacheReach(t *testing.T) {
	in, err := newMixInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, b := range append(append([][]byte(nil), in.warm...), in.miss...) {
		if seen[string(b)] {
			t.Fatal("the warm set and miss pool repeat a request body")
		}
		seen[string(b)] = true
	}
	cache := &lru{capacity: serve.DefaultCacheSize, order: list.New(), at: map[string]*list.Element{}}
	for _, b := range in.warm {
		cache.add(string(b))
	}
	hits := 0
	ops := 3 * mixMissPool * mixRound
	for i := 0; i < ops; i++ {
		body, miss, _ := in.op(i)
		hit := cache.get(string(body))
		if hit == miss {
			t.Fatalf("operation %d (miss=%v) found the cache hit=%v", i, miss, hit)
		}
		if !hit {
			cache.add(string(body))
		} else {
			hits++
		}
	}
	if hits*mixRound != ops*(mixRound-1) {
		t.Fatalf("%d hits in %d operations, want a share of exactly 0.9", hits, ops)
	}
}

func TestMixObservedHitShareIsExact(t *testing.T) {
	fx := fixtureT(t)
	in, err := newMixInputs(5)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(fx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range in.warm {
		if w := post(srv, "/v1/predict", b); w.Code != http.StatusOK {
			t.Fatalf("priming: status %d", w.Code)
		}
	}
	before, err := scrape(srv)
	if err != nil {
		t.Fatal(err)
	}
	const ops = 100 * mixRound
	for i := 0; i < ops; i++ {
		body, _, _ := in.op(i)
		if w := post(srv, "/v1/predict", body); w.Code != http.StatusOK {
			t.Fatalf("operation %d: status %d", i, w.Code)
		}
	}
	after, err := scrape(srv)
	if err != nil {
		t.Fatal(err)
	}
	d := delta(before, after)
	if err := checkHitShare(d, ops); err != nil {
		t.Fatal(err)
	}
	if err := checkHitShare(d, ops+1); err == nil {
		t.Error("checkHitShare accepted a count that is off by one")
	}
}

func TestSeedPlumbing(t *testing.T) {
	mix := func(seed int64) []byte {
		in, err := newMixInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(in.pattern)
		return bytes.Join(append(append([][]byte{b}, in.warm...), in.miss[:64]...), nil)
	}
	opt := func(seed int64) []byte {
		in, err := newOptInputs(seed)
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Join(in.bodies, nil)
	}
	scen := func(seed int64) []byte {
		b, _ := json.Marshal(fleetScenario(seed))
		return b
	}
	corpus := func(seed int64) []byte {
		c, err := buildCorpus(8, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(c)
		return b
	}
	for name, gen := range map[string]func(int64) []byte{"predict-mix": mix, "optimize": opt, "fleet scenario": scen, "corpus": corpus} {
		if !bytes.Equal(gen(1), gen(1)) {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if bytes.Equal(gen(1), gen(2)) {
			t.Errorf("%s: different seeds gave the same inputs", name)
		}
	}
}

func TestCostChecksRejectCorruption(t *testing.T) {
	fx := fixtureT(t)
	in, err := newMixInputs(9)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(fx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, body := range in.miss[:12] {
		var req serve.PredictRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		w := post(srv, "/v1/predict", body)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
		if err := checkPredictResponse(fx.pred, req, w.Body.Bytes()); err != nil {
			t.Fatalf("request %d: an intact response fails: %v", i, err)
		}
		var resp serve.PredictResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		ref, err := referenceCosts(fx.pred, req.Query, req.Cluster, req.Placement)
		if err != nil {
			t.Fatal(err)
		}
		corrupt := []func(c *serve.Costs){
			func(c *serve.Costs) { c.ThroughputTPS = c.ThroughputTPS*1.0001 + 1e-3 },
			func(c *serve.Costs) { c.ProcLatencyMS = math.NaN() },
			func(c *serve.Costs) { c.E2ELatencyMS = math.Inf(1) },
		}
		if !ref.ambiguous {
			corrupt = append(corrupt, func(c *serve.Costs) { c.Success = !c.Success })
		}
		for j, f := range corrupt {
			c := resp.Costs
			f(&c)
			if checkCosts(ref, c) == nil {
				t.Errorf("request %d: corruption %d passed the cost check", i, j)
			}
		}
	}
	if checkSameBytes([]byte(`{"a":1}`), []byte(`{"a":2}`)) == nil {
		t.Error("checkSameBytes accepted different responses")
	}
}

func TestOptimizeChecksRejectCorruption(t *testing.T) {
	fx := fixtureT(t)
	in, err := newOptInputs(4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := newServer(fx, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(strategies); i++ {
		w := post(srv, "/v1/optimize", in.bodies[i])
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
		p := in.pairs[i]
		resp, err := checkOptimizeResponse(fx.pred, p.q, p.c, w.Body.Bytes())
		if err != nil {
			t.Fatalf("request %d: an intact response fails: %v", i, err)
		}
		bad := resp
		bad.Placement = append(sim.Placement(nil), resp.Placement...)
		bad.Placement[0] = len(p.c.Hosts)
		b, _ := json.Marshal(bad)
		if _, err := checkOptimizeResponse(fx.pred, p.q, p.c, b); err == nil {
			t.Errorf("request %d: an invalid placement passed", i)
		}
		bad = resp
		bad.Costs.ThroughputTPS++
		b, _ = json.Marshal(bad)
		if _, err := checkOptimizeResponse(fx.pred, p.q, p.c, b); err == nil {
			t.Errorf("request %d: corrupted costs passed", i)
		}
		moved := append(sim.Placement(nil), resp.Placement...)
		moved[0] = (moved[0] + 1) % len(p.c.Hosts)
		if checkSamePlacement(resp.Placement, moved) == nil {
			t.Errorf("request %d: a different placement passed as a repeat", i)
		}
	}
}

func TestFleetChecksRejectCorruption(t *testing.T) {
	fx := fixtureT(t)
	rep, err := runScenario(fleetScenario(3), fx.pred)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFleetReport(rep); err != nil {
		t.Fatalf("an intact report fails: %v", err)
	}
	b, _ := json.Marshal(rep)
	again, err := runScenario(fleetScenario(3), fx.pred)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := json.Marshal(again)
	if err := checkSameBytes(b, b2); err != nil {
		t.Fatalf("a repeated run's report differs: %v", err)
	}
	for i := range rep.Assertions {
		bad := *rep
		bad.Assertions = append([]fleet.AssertionResult(nil), rep.Assertions...)
		bad.Assertions[i].Pass = false
		if checkFleetReport(&bad) == nil {
			t.Errorf("a failed %s assertion passed", rep.Assertions[i].Name)
		}
	}
	bad := *rep
	bad.Assertions = nil
	if checkFleetReport(&bad) == nil {
		t.Error("a report without the no-dead-placements assertion passed")
	}
	bad.Timeline = nil
	b3, _ := json.Marshal(bad)
	if checkSameBytes(b, b3) == nil {
		t.Error("a changed report passed as byte-identical")
	}
}

func TestTrainChecksRejectCorruption(t *testing.T) {
	fx := fixtureT(t)
	if err := checkFiniteWeights(fx.pred); err != nil {
		t.Fatalf("intact weights fail: %v", err)
	}
	b, _ := json.Marshal(fx.pred)
	var copyPred core.Predictor
	if err := json.Unmarshal(b, &copyPred); err != nil {
		t.Fatal(err)
	}
	params, _ := copyPred.E2ELatency.Models[1].Net.Params()
	params[0][0] = math.NaN()
	if checkFiniteWeights(&copyPred) == nil {
		t.Error("a NaN weight passed")
	}
	if err := checkWorkersInvariant(fx.train, fx.val, 3); err != nil {
		t.Error(err)
	}
}

func TestTracedPredictorTakesTheSamePath(t *testing.T) {
	fx := fixtureT(t)
	in, err := newOptInputs(2)
	if err != nil {
		t.Fatal(err)
	}
	pairs := in.pairs[:4]
	tr := newTracer()
	search := func(pred placement.BatchPredictor) error {
		for i, p := range pairs {
			strat, err := placement.ParseStrategy(strategies[i%len(strategies)])
			if err != nil {
				return err
			}
			if _, err := placement.Search(pred, p.q, p.c, strat, placement.MinProcLatency,
				placement.Budget{MaxCandidates: ladderBudget}, placement.SearchOptions{Workers: 1, Seed: 1}); err != nil {
				return err
			}
		}
		return nil
	}
	if err := probePaths(fx.pred, tr, search); err != nil {
		t.Fatal(err)
	}
	sp := summarize(tr.closed())
	if sp["core.score_tile"].n == 0 || sp["core.session"].n == 0 {
		t.Fatalf("the traced search recorded no tile or session spans: %v", sp)
	}
	bare := map[string]float64{pathCounters[0]: 3}
	if comparePaths(bare, map[string]float64{pathCounters[0]: 4}) == nil {
		t.Error("different counter deltas passed")
	}
}

func TestSpanParentsAndSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.begin("serve.request", "", 0)
	tr.bind("m1", root)
	done := make(chan int32)
	go func() {
		id := tr.begin("core.predict_batch", "m1", 1)
		tr.end(id)
		done <- id
	}()
	child := <-done
	tr.unbind("m1")
	inner := tr.begin("core.session", "", 0)
	tr.end(inner)
	tr.end(root)
	spans := tr.closed()
	if spans[child].Parent != root || spans[inner].Parent != root || spans[child].Req != root {
		t.Fatalf("parents: %+v", spans)
	}
	s := summarize(spans)["serve.request"]
	if !(s.selfUS >= 0 && s.selfUS <= s.meanUS) {
		t.Fatalf("self time %v outside [0, %v]", s.selfUS, s.meanUS)
	}
	if got := covered(span{Start: 0, End: 100}, []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 200}}); got != 40 {
		t.Errorf("covered = %d, want 40", got)
	}
}
