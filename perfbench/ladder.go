package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/gnn"
	"costream/internal/hardware"
	"costream/internal/nn"
	"costream/internal/obs"
	"costream/internal/placement"
	"costream/internal/sim"
	"costream/internal/stream"
)

// The replay ladder re-runs each rung of the inference path on a
// workload's own inputs, outside the timed phase, through the layers'
// public functions: nn.StackedMLP.ForwardShared, gnn.PackGraphs,
// gnn.StackedModel.InferEnsembleBatch, core.TileSession, placement.Search
// (fixture and stub predictor) and sim.Run. Its rungs can be summed
// against the optimize request time.
const (
	ladderPairs  = 8  // (query, cluster) pairs per workload
	ladderTile   = 32 // candidates per pair
	ladderBudget = 64 // search budget, as on the optimize workload
	// rungTime is how long each rung repeats its calls, so a mean rests
	// on enough of them.
	rungTime = 300 * time.Millisecond
	// trainSamples is how many corpus traces the training replays use.
	trainSamples = 32
)

// fleetSimConfig is the observation window of the fleet replay
// scenarios (and of the sim.Run replay on every workload).
var fleetSimConfig = sim.Config{DurationS: 10, WarmupS: 2, StepS: 0.05, NoiseStd: 0.05}

// ladderPair is one replay input: a (query, cluster) pair and a tile of
// valid candidate placements.
type ladderPair struct {
	q     *stream.Query
	c     *hardware.Cluster
	cands []sim.Placement
}

// repeatFor calls fn until rungTime has passed (at least once) and
// returns the mean wall time of a call in microseconds.
func repeatFor(fn func() error) (float64, error) {
	return rung([]func() error{fn})
}

// rung times one ladder rung: it runs every call in turn, repeating the
// pass until rungTime has passed (at least once), and returns the mean
// wall time of a call in microseconds.
func rung(calls []func() error) (float64, error) {
	if len(calls) == 0 {
		return 0, nil
	}
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < rungTime {
		for _, call := range calls {
			if err := call(); err != nil {
				return 0, err
			}
		}
		n += len(calls)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n) / 1e3, nil
}

// memberMLPs decodes a member network's encoder MLPs by node-kind name
// from its serialized form (the only public view of its layers).
func memberMLPs(net *gnn.Model) (map[string]*nn.MLP, error) {
	b, err := json.Marshal(net)
	if err != nil {
		return nil, err
	}
	var j struct {
		Encoders map[string]*nn.MLP `json:"encoders"`
	}
	if err := json.Unmarshal(b, &j); err != nil {
		return nil, err
	}
	return j.Encoders, nil
}

// denseCost is the computed work of one StackedMLP.ForwardShared call on
// rows inputs: floating-point operations (a multiply-add counts 2) and
// bytes moved (weights read once, input read, every layer's output
// written and all but the last read back).
func denseCost(s *nn.StackedMLP, rows int) (flop, bytes float64) {
	k := float64(s.K)
	r := float64(rows)
	bytes = r * float64(s.InDim())
	for li, l := range s.Layers {
		in, out := float64(l.In), float64(l.Out)
		flop += 2 * r * k * in * out
		bytes += k * (in*out + out)
		passes := 2.0
		if li == len(s.Layers)-1 {
			passes = 1
		}
		bytes += passes * r * k * out
	}
	return flop, 8 * bytes
}

// tileGraphs builds the candidate graphs of a pair with the member's
// batch featurizer.
func tileGraphs(m *core.CostModel, p ladderPair) ([]*gnn.Graph, *gnn.Plan, error) {
	bf, err := m.Feat.NewBatch(p.q, p.c)
	if err != nil {
		return nil, nil, err
	}
	graphs := make([]*gnn.Graph, len(p.cands))
	for i, pl := range p.cands {
		if graphs[i], err = bf.BuildGraph(pl); err != nil {
			return nil, nil, err
		}
	}
	return graphs, bf.Plan(), nil
}

// ladderResult holds the rungs' means.
type ladderResult struct {
	denseUS, denseMflop, denseKB float64
	packUS, inferBatchUS         float64
	sessionUS, scoreTileUS, tile float64
	searchMS, engineMS           float64
	candidates, rounds, allocs   float64
	simUS                        float64
}

// constPredictor scores every candidate alike, so a search with it
// measures the placement engine alone.
type constPredictor struct{}

func (constPredictor) PredictPlacement(*stream.Query, *hardware.Cluster, sim.Placement) (placement.PredCosts, error) {
	return placement.PredCosts{ThroughputTPS: 1, ProcLatencyMS: 1, E2ELatencyMS: 1, Success: true}, nil
}

func (c constPredictor) PredictBatch(q *stream.Query, cl *hardware.Cluster, ps []sim.Placement) ([]placement.PredCosts, error) {
	out := make([]placement.PredCosts, len(ps))
	for i := range out {
		out[i], _ = c.PredictPlacement(q, cl, ps[i])
	}
	return out, nil
}

var strategies = []string{"random", "exhaustive", "beam", "local-search"}

func runLadder(pr *core.Predictor, pairs []ladderPair, seed int64) (*ladderResult, error) {
	lr := &ladderResult{}
	var dense, pack, infer, sessions []func() error
	var flops, kbs []float64
	for _, p := range pairs {
		graphsByMode := map[core.FeatureMode][]*gnn.Graph{}
		planByMode := map[core.FeatureMode]*gnn.Plan{}
		for _, me := range pr.Ensembles() {
			if me.Ensemble == nil {
				continue
			}
			m0 := me.Ensemble.Models[0]
			graphs, ok := graphsByMode[m0.Feat.Mode]
			if !ok {
				var plan *gnn.Plan
				var err error
				if graphs, plan, err = tileGraphs(m0, p); err != nil {
					return nil, err
				}
				graphsByMode[m0.Feat.Mode], planByMode[m0.Feat.Mode] = graphs, plan
			}
			plan := planByMode[m0.Feat.Mode]
			// Encoder pass: every node's features through its kind's
			// stacked encoder, operators once, hosts per candidate.
			rows := map[string][]float64{}
			for gi, g := range graphs {
				for _, nd := range g.Nodes {
					if gi > 0 && nd.Kind != gnn.KindHost {
						continue
					}
					rows[nd.Kind.String()] = append(rows[nd.Kind.String()], nd.Feat...)
				}
			}
			stacks := map[string][]*nn.MLP{}
			for _, m := range me.Ensemble.Models {
				mlps, err := memberMLPs(m.Net)
				if err != nil {
					return nil, err
				}
				for kind, mlp := range mlps {
					stacks[kind] = append(stacks[kind], mlp)
				}
			}
			for kind, ms := range stacks {
				x := rows[kind]
				if len(x) == 0 {
					continue
				}
				s, err := nn.StackMLPs(ms)
				if err != nil {
					return nil, err
				}
				n := len(x) / s.InDim()
				dst := make([]float64, n*s.K*s.OutDim())
				sc := &nn.DenseScratch{}
				dense = append(dense, func() error { s.ForwardShared(dst, x, n, sc); return nil })
				f, b := denseCost(s, n)
				flops = append(flops, f/1e6)
				kbs = append(kbs, b/1024)
			}
			nets := make([]*gnn.Model, len(me.Ensemble.Models))
			for i, m := range me.Ensemble.Models {
				nets[i] = m.Net
			}
			sm, err := gnn.Stack(nets)
			if err != nil {
				return nil, err
			}
			pg, err := gnn.PackGraphs(graphs, plan, nil)
			if err != nil {
				return nil, err
			}
			pack = append(pack, func() error {
				_, err := gnn.PackGraphs(graphs, plan, pg)
				return err
			})
			bs := gnn.NewBatchScratch()
			out := make([]float64, len(graphs)*sm.K())
			infer = append(infer, func() error { return sm.InferEnsembleBatch(pg, bs, out) })
		}
		sessions = append(sessions, func() error {
			_, err := pr.NewTileSession(p.q, p.c)
			return err
		})
	}
	var err error
	if lr.denseUS, err = rung(dense); err != nil {
		return nil, err
	}
	lr.denseMflop, lr.denseKB = mean(flops), mean(kbs)
	if lr.packUS, err = rung(pack); err != nil {
		return nil, err
	}
	if lr.inferBatchUS, err = rung(infer); err != nil {
		return nil, err
	}
	if lr.sessionUS, err = rung(sessions); err != nil {
		return nil, err
	}

	var tiles []func() error
	var sizes []float64
	for _, p := range pairs {
		ts, err := pr.NewTileSession(p.q, p.c)
		if err != nil {
			return nil, err
		}
		w := ts.TileSize()
		out := make([]placement.PredCosts, len(p.cands))
		for lo := 0; lo < len(p.cands); lo += w {
			cands, dst := p.cands[lo:min(lo+w, len(p.cands))], out[lo:min(lo+w, len(p.cands))]
			tiles = append(tiles, func() error { return ts.ScoreTile(cands, dst) })
			sizes = append(sizes, float64(len(cands)))
		}
	}
	if lr.scoreTileUS, err = rung(tiles); err != nil {
		return nil, err
	}
	lr.tile = mean(sizes)

	var fixtureSearch, stubSearch []func() error
	var cands, rounds, allocs []float64
	for i, p := range pairs {
		strat, err := placement.ParseStrategy(strategies[i%len(strategies)])
		if err != nil {
			return nil, err
		}
		opts := placement.SearchOptions{Workers: 1, Seed: seed + int64(i)}
		budget := placement.Budget{MaxCandidates: ladderBudget}
		search := func(pred placement.Predictor) func() error {
			return func() error {
				_, err := placement.Search(pred, p.q, p.c, strat, placement.MinProcLatency, budget, opts)
				return err
			}
		}
		var res *placement.SearchResult
		n, err := allocsDuring(func() error {
			var err error
			res, err = placement.Search(pr, p.q, p.c, strat, placement.MinProcLatency, budget, opts)
			return err
		})
		if err != nil {
			return nil, err
		}
		allocs = append(allocs, float64(n))
		cands = append(cands, float64(res.Examined))
		rounds = append(rounds, float64(res.Rounds))
		fixtureSearch = append(fixtureSearch, search(pr))
		stubSearch = append(stubSearch, search(constPredictor{}))
	}
	lr.candidates, lr.rounds, lr.allocs = mean(cands), mean(rounds), mean(allocs)
	if lr.searchMS, err = rung(fixtureSearch); err != nil {
		return nil, err
	}
	if lr.engineMS, err = rung(stubSearch); err != nil {
		return nil, err
	}
	lr.searchMS /= 1e3
	lr.engineMS /= 1e3

	var sims []func() error
	for _, p := range pairs {
		sims = append(sims, func() error {
			_, err := sim.Run(p.q, p.c, p.cands[0], fleetSimConfig)
			return err
		})
	}
	if lr.simUS, err = rung(sims); err != nil {
		return nil, err
	}
	return lr, nil
}

// trainReplay times the training rungs on corpus traces: one sample's
// forward and backward pass through a fresh member-shaped network
// (gnn.forward_backward_us), the tape's backward pass alone
// (nn.backward_us), and one Adam step over all of the network's
// parameters (nn.adam_step_us).
func trainReplay(m map[string]float64, pr *core.Predictor, corpus *dataset.Corpus, seed int64) error {
	cm := pr.ProcLatency.Models[0]
	net, err := gnn.New(cm.Net.Config(), seed)
	if err != nil {
		return err
	}
	type sample struct {
		g    *gnn.Graph
		plan *gnn.Plan
		y    float64
	}
	var samples []sample
	for _, tr := range corpus.Traces {
		if len(samples) == trainSamples {
			break
		}
		if !tr.Metrics.Success {
			continue
		}
		g, err := cm.Feat.BuildGraph(tr.Query, tr.Cluster, tr.Placement)
		if err != nil {
			return err
		}
		plan, err := gnn.NewPlan(g)
		if err != nil {
			return err
		}
		samples = append(samples, sample{g, plan, tr.Metrics.ProcLatencyMS})
	}
	if len(samples) == 0 {
		return fmt.Errorf("no successful traces to replay training on")
	}
	tape := nn.NewTape()
	sc := gnn.NewScratch()
	var fb, back time.Duration
	n := 0
	start := time.Now()
	for n == 0 || time.Since(start) < rungTime {
		s := samples[n%len(samples)]
		tape.Reset()
		t0 := time.Now()
		out, err := net.ForwardPlanned(tape, s.g, s.plan, sc)
		if err != nil {
			return err
		}
		loss := nn.MSLELoss(tape, out, s.y)
		t1 := time.Now()
		tape.Backward(loss)
		t2 := time.Now()
		fb += t2.Sub(t0)
		back += t2.Sub(t1)
		n++
	}
	m["gnn.forward_backward_us"] = float64(fb.Nanoseconds()) / float64(n) / 1e3
	m["nn.backward_us"] = float64(back.Nanoseconds()) / float64(n) / 1e3
	params, grads := net.Params()
	adam := nn.NewAdam(3e-3, params, grads)
	us, err := repeatFor(func() error { adam.Step(); return nil })
	if err != nil {
		return err
	}
	m["nn.adam_step_us"] = us
	for _, p := range params {
		for _, w := range p {
			if math.IsNaN(w) {
				return fmt.Errorf("training replay produced NaN weights")
			}
		}
	}
	return nil
}

// tracedRun carries what finishTraced needs from a workload's traced run.
type tracedRun struct {
	workload string
	seed     int64
	res      *result
	tr       *tracer
	spans    map[string]spanStats
	// timed holds the counter deltas of the timed phase.
	timed    map[string]float64
	pred     *core.Predictor
	train    *dataset.Corpus // training split of the workload's corpus
	val      *dataset.Corpus
	trainCfg core.PredictorConfig
	pairs    []ladderPair
	// probe runs a fixed piece of the workload's work with the given
	// predictor; it runs once bare and once traced.
	probe func(pred placement.BatchPredictor) error
}

// finishTraced fills the per-layer metrics every workload shares: the
// core spans, the replay ladder, the fleet and training replays and their
// output checks, the inference-path probe; it writes the spans and sets
// every layer the workload does not reach to 0.
func finishTraced(m map[string]float64, r tracedRun) error {
	sp := r.spans
	m["core.predict_batch_us"] = sp["core.predict_batch"].meanUS

	before, err := scrape(obs.Default().Handler())
	if err != nil {
		return err
	}
	lr, err := runLadder(r.pred, r.pairs, r.seed)
	if err != nil {
		return fmt.Errorf("replay ladder: %w", err)
	}
	after, err := scrape(obs.Default().Handler())
	if err != nil {
		return err
	}
	ld := delta(before, after)
	key := func(d map[string]float64) (fused, fallback float64) {
		return d["costream_inference_fused_candidates_total"], d["costream_inference_fallback_candidates_total"]
	}
	fused, fallback := key(r.timed)
	if fused+fallback == 0 {
		fused, fallback = key(ld)
	}
	if fused+fallback > 0 {
		m["core.fused_ratio"] = fused / (fused + fallback)
	}
	if s := sp["core.session"]; s.n > 0 {
		m["core.session_us"] = s.meanUS
	} else {
		m["core.session_us"] = lr.sessionUS
	}
	if s := sp["core.score_tile"]; s.n > 0 {
		m["core.score_tile_us"], m["core.tile_size"] = s.meanUS, s.meanSize
	} else {
		m["core.score_tile_us"], m["core.tile_size"] = lr.scoreTileUS, lr.tile
	}
	m["gnn.pack_us"], m["gnn.infer_batch_us"] = lr.packUS, lr.inferBatchUS
	m["nn.dense_forward_us"], m["nn.dense_forward_mflop"], m["nn.dense_forward_kb"] = lr.denseUS, lr.denseMflop, lr.denseKB
	m["placement.search_ms"], m["placement.engine_ms"] = lr.searchMS, lr.engineMS
	m["placement.candidates_per_search"], m["placement.rounds_per_search"] = lr.candidates, lr.rounds
	m["placement.allocs_per_search"] = lr.allocs
	m["sim.run_us"] = lr.simUS

	timed := len(r.tr.closed())
	if err := fleetReplay(m, r.res, r.pred, r.tr, r.seed); err != nil {
		return fmt.Errorf("fleet replay: %w", err)
	}
	fleetSpans := summarize(r.tr.closed()[timed:])
	m["fleet.run_ms"] = fleetSpans["fleet.run"].meanUS / 1e3
	m["fleet.self_ms"] = fleetSpans["fleet.run"].selfUS / 1e3
	m["core.predict_placement_us"] = fleetSpans["core.predict_placement"].meanUS

	r.res.check(checkFiniteWeights(r.pred))
	r.res.check(checkWorkersInvariant(r.train, r.val, r.seed))
	if err := trainReplay(m, r.pred, r.train, r.seed); err != nil {
		return fmt.Errorf("training replay: %w", err)
	}
	start := time.Now()
	if _, err := core.TrainEnsemble(r.train, r.val, core.MetricProcLatency, r.trainCfg.Train, r.trainCfg.EnsembleSize); err != nil {
		return fmt.Errorf("training replay: %w", err)
	}
	m["core.train_ensemble_s"] = time.Since(start).Seconds()

	if err := probePaths(r.pred, r.tr, r.probe); err != nil {
		return err
	}
	path, err := writeSpans(r.tr.closed(), r.workload, r.seed)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stderrLog, "spans written to %s\n", path)
	for _, d := range perLayer {
		if _, ok := m[d.name]; !ok {
			m[d.name] = 0
		}
	}
	return nil
}

// probePaths runs the probe once with the bare predictor and once with
// the tracing wrapper and fails unless both moved the inference-path
// counters by the same amounts: the wrapper must not change which path
// scores a candidate.
func probePaths(pred *core.Predictor, tr *tracer, probe func(placement.BatchPredictor) error) error {
	run := func(p placement.BatchPredictor) (map[string]float64, error) {
		before, err := scrape(obs.Default().Handler())
		if err != nil {
			return nil, err
		}
		if err := probe(p); err != nil {
			return nil, err
		}
		after, err := scrape(obs.Default().Handler())
		if err != nil {
			return nil, err
		}
		return delta(before, after), nil
	}
	bare, err := run(pred)
	if err != nil {
		return fmt.Errorf("path probe: %w", err)
	}
	traced, err := run(&tracedPredictor{inner: pred, tr: tr})
	if err != nil {
		return fmt.Errorf("path probe: %w", err)
	}
	return comparePaths(bare, traced)
}

// comparePaths fails when the two runs moved any path counter
// differently.
func comparePaths(bare, traced map[string]float64) error {
	for _, k := range pathCounters {
		if bare[k] != traced[k] {
			return fmt.Errorf("traced run took another inference path: %s moved by %v untraced, %v traced", k, bare[k], traced[k])
		}
	}
	fmt.Fprintf(stderrLog, "inference path probe: traced and untraced counter deltas equal (%s %v)\n",
		pathCounters[0], bare[pathCounters[0]])
	return nil
}

// serveCounters fills the serve layer's counter metrics from the timed
// phase's deltas.
func serveCounters(m map[string]float64, d map[string]float64) {
	hits := d[`costream_serve_cache_ops_total{outcome="hit"}`]
	misses := d[`costream_serve_cache_ops_total{outcome="miss"}`]
	if hits+misses > 0 {
		m["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	if n := d["costream_serve_coalesce_batch_size_count"]; n > 0 {
		m["serve.coalesce_batch_size"] = d["costream_serve_coalesce_batch_size_sum"] / n
	}
	m["serve.rejected"] = d["costream_http_rejected_total"]
}

// replayDecode times the server's request decoding on the given bodies
// (a strict JSON decode into the request type) and returns the mean per
// body in microseconds.
func replayDecode(bodies [][]byte, newReq func() any) (float64, error) {
	us, err := repeatFor(func() error {
		for _, b := range bodies {
			dec := json.NewDecoder(bytes.NewReader(b))
			dec.DisallowUnknownFields()
			if err := dec.Decode(newReq()); err != nil {
				return err
			}
		}
		return nil
	})
	return us / float64(len(bodies)), err
}

// reportThroughput prints the traced run's throughput, the figure the
// tracing overhead is computed from.
func reportThroughput(workload string, ls loopStats) {
	fmt.Fprintf(stderrLog, "traced %s: %d operations, %.4g per second\n", workload, ls.ops, float64(ls.ops)/ls.elapsed.Seconds())
}
