package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"costream/internal/core"
	"costream/internal/dataset"
	"costream/internal/hardware"
	"costream/internal/nn"
	"costream/internal/placement"
	"costream/internal/scenario"
	"costream/internal/sim"
	"costream/internal/stream"
	"costream/internal/workload"
)

// The fixture model of the serving and fleet workloads has the
// costream-train architecture (hidden 32, 3 members, all five metrics);
// inference cost depends on that shape, not on how long it trained, so
// one epoch on a small corpus keeps set-up short.
const (
	fixtureTraces  = 96
	fixtureTrain   = 80
	fixtureHidden  = 32
	fixtureMembers = 3
	fixtureEpochs  = 1
)

// fixture is a trained predictor and the corpus splits it was trained on.
type fixture struct {
	train, val *dataset.Corpus
	pred       *core.Predictor
	cfg        core.PredictorConfig
	buildS     float64
	trainS     float64
}

// buildCorpus simulates n traces of the paper's training distribution
// with shaped queries and clusters (see shapedQuery).
func buildCorpus(n int, seed int64) (*dataset.Corpus, error) {
	cfg := scenario.MustGet("training").Make(n, seed)
	cfg.QueryFn = shapedQuery
	cfg.ClusterFn = func(_ *workload.Generator, i int) *hardware.Cluster {
		return shapedCluster(rand.New(rand.NewSource(dataset.TraceSeed(seed, i))), i)
	}
	return dataset.Build(cfg)
}

// fixtureConfig is the training configuration of the fixture model.
func fixtureConfig(seed int64) core.PredictorConfig {
	tc := core.DefaultTrainConfig(seed)
	tc.Epochs = fixtureEpochs
	tc.Hidden = fixtureHidden
	tc.Patience = 0
	return core.PredictorConfig{Train: tc, EnsembleSize: fixtureMembers}
}

// newFixture builds the corpus and trains the fixture model.
func newFixture(seed int64) (*fixture, error) {
	start := time.Now()
	corpus, err := buildCorpus(fixtureTraces, seed)
	if err != nil {
		return nil, fmt.Errorf("building fixture corpus: %w", err)
	}
	built := time.Now()
	f := &fixture{
		train: &dataset.Corpus{Traces: corpus.Traces[:fixtureTrain]},
		val:   &dataset.Corpus{Traces: corpus.Traces[fixtureTrain:]},
		cfg:   fixtureConfig(seed),
	}
	if f.pred, err = core.TrainPredictor(f.train, f.val, f.cfg); err != nil {
		return nil, fmt.Errorf("training fixture model: %w", err)
	}
	f.buildS = built.Sub(start).Seconds()
	f.trainS = time.Since(built).Seconds()
	return f, nil
}

// fixtureTimes collects each set-up repetition's corpus build and
// fixture training times; the traced run reports their medians.
type fixtureTimes struct{ build, train []float64 }

func (ft *fixtureTimes) add(fx *fixture) {
	ft.build = append(ft.build, fx.buildS)
	ft.train = append(ft.train, fx.trainS)
}

func (ft *fixtureTimes) report(m map[string]float64) {
	m["dataset.build_s"] = median(ft.build)
	m["core.fixture_train_s"] = median(ft.train)
}

// tagCluster renames the cluster's hosts "<tag>-h<j>", so a traced run
// can attribute calls made on another goroutine to their request, and
// so requests with different tags never share a cache key.
func tagCluster(c *hardware.Cluster, tag string) {
	for j, h := range c.Hosts {
		h.ID = fmt.Sprintf("%s-h%d", tag, j)
	}
}

// classShapes lists the six query classes of the paper's Figure 8
// (linear, linear+agg, 2-way join, 2-way join+agg, 3-way join, 3-way
// join+agg): joins, filter positions, aggregation.
var classShapes = []struct {
	joins, maxFilters int
	agg               bool
}{{0, 1, false}, {0, 2, true}, {1, 3, false}, {1, 4, true}, {2, 5, false}, {2, 6, true}}

// shapedQuery and shapedCluster draw input i. Its shape — query class,
// filter count, host count — follows from i alone, so every seed yields
// inputs of the same shapes and sizes, and a seed changes only the rates,
// windows, selectivities, schemas and host features.
func shapedQuery(gen *workload.Generator, i int) *stream.Query {
	shape := classShapes[i%len(classShapes)]
	filters := 1 + (i/len(classShapes))%shape.maxFilters
	switch shape.joins {
	case 0:
		return gen.Linear(filters, shape.agg)
	case 1:
		return gen.TwoWay(filters, shape.agg)
	default:
		return gen.ThreeWay(filters, shape.agg)
	}
}

func shapedCluster(rng *rand.Rand, i int) *hardware.Cluster {
	return hardware.TrainingGrid().SampleCluster(rng, 3+(i/len(classShapes))%4)
}

// refCosts is a placement's costs computed member by member through the
// training-time forward pass. Ambiguous is set when a classifier member's
// probability lies so close to 0.5 that rounding could flip its vote.
type refCosts struct {
	costs     placement.PredCosts
	ambiguous bool
}

// referenceCosts recomputes a placement's predicted costs without the
// inference kernels under test: each member builds its graph with its
// own featurizer, gnn.Model.Forward records the pass on an inference
// tape, and the members combine as the ensemble defines — the mean of
// exp(out)-1 (clamped at 0) for regression metrics, the majority vote of
// sigmoid(out) > 0.5 for classification metrics.
func referenceCosts(pr *core.Predictor, q *stream.Query, c *hardware.Cluster, p sim.Placement) (refCosts, error) {
	out := refCosts{costs: placement.PredCosts{Success: true}}
	tape := nn.NewInferenceTape()
	for _, me := range pr.Ensembles() {
		if me.Ensemble == nil {
			continue
		}
		var sum float64
		votes := 0
		for _, m := range me.Ensemble.Models {
			g, err := m.Feat.BuildGraph(q, c, p)
			if err != nil {
				return out, fmt.Errorf("reference %v: %w", me.Metric, err)
			}
			tape.Reset()
			node, err := m.Net.Forward(tape, g)
			if err != nil {
				return out, fmt.Errorf("reference %v: %w", me.Metric, err)
			}
			raw := node.Data[0]
			if me.Metric.IsRegression() {
				sum += math.Max(0, math.Expm1(raw))
				continue
			}
			prob := 1 / (1 + math.Exp(-raw))
			if math.Abs(prob-0.5) < 1e-9 {
				out.ambiguous = true
			}
			if prob > 0.5 {
				votes++
			}
		}
		k := len(me.Ensemble.Models)
		vote := votes*2 > k
		switch me.Metric {
		case core.MetricThroughput:
			out.costs.ThroughputTPS = sum / float64(k)
		case core.MetricProcLatency:
			out.costs.ProcLatencyMS = sum / float64(k)
		case core.MetricE2ELatency:
			out.costs.E2ELatencyMS = sum / float64(k)
		case core.MetricBackpressure:
			out.costs.Backpressured = vote
		case core.MetricSuccess:
			out.costs.Success = vote
		}
	}
	return out, nil
}
