// Command perfbench is the repository benchmark. Each invocation runs one
// workload in its own process, drives the program only through its
// public entry points (serve.Server.ServeHTTP in-process, and in traced
// runs fleet.Run and core.TrainPredictor), checks the outputs, and prints
// one JSON result line:
//
//	perfbench --workload predict-mix --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload runs with span recording around every call
// into a layer plus the replay ladder, and the result carries the
// per-layer metrics. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// stderrLog receives diagnostics; stdout carries only the result line.
var stderrLog io.Writer = os.Stderr

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics a user of the system sees; every workload
// reports all of them from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"heap_live_mb", "MB"},
}

// perLayer lists the layer metrics every traced run reports. A layer a
// workload never reaches reads 0 (see README.md).
var perLayer = []metricDef{
	{"serve.request_us", "us"},
	{"serve.self_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.coalesce_batch_size", "count"},
	{"serve.rejected", "count"},
	{"core.predict_batch_us", "us"},
	{"core.predict_placement_us", "us"},
	{"core.session_us", "us"},
	{"core.score_tile_us", "us"},
	{"core.tile_size", "count"},
	{"core.fused_ratio", "ratio"},
	{"core.train_ensemble_s", "s"},
	{"core.fixture_train_s", "s"},
	{"gnn.pack_us", "us"},
	{"gnn.infer_batch_us", "us"},
	{"gnn.forward_backward_us", "us"},
	{"nn.dense_forward_us", "us"},
	{"nn.dense_forward_mflop", "MFLOP"},
	{"nn.dense_forward_kb", "KB"},
	{"nn.backward_us", "us"},
	{"nn.adam_step_us", "us"},
	{"placement.search_ms", "ms"},
	{"placement.engine_ms", "ms"},
	{"placement.candidates_per_search", "count"},
	{"placement.rounds_per_search", "count"},
	{"placement.allocs_per_search", "count"},
	{"fleet.run_ms", "ms"},
	{"fleet.self_ms", "ms"},
	{"fleet.migrations", "count"},
	{"fleet.violations", "count"},
	{"fleet.allocs_per_run", "count"},
	{"sim.run_us", "us"},
	{"dataset.build_s", "s"},
}

// options are one invocation's settings.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// clients is the number of closed-loop clients (at most the CPU
	// count, and at most 2).
	clients int
}

// result is what a workload run hands back for printing.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
}

// check records a failed output check: the run still reports its
// metrics, with correct set to false and the reason on stderr.
func (r *result) check(err error) {
	if err != nil {
		r.correct = false
		fmt.Fprintf(stderrLog, "check failed: %v\n", err)
	}
}

// endToEndMetrics fills the end-to-end metrics of a closed-loop workload.
func (r *result) endToEndMetrics(setupS, heapMB float64, ls loopStats) error {
	r.metrics["setup_s"] = setupS
	r.metrics["heap_live_mb"] = heapMB
	return latencyMetrics(r.metrics, ls)
}

type workloadFunc func(opts options) (*result, error)

var workloads = map[string]workloadFunc{
	"predict-mix": runPredictMix,
	"optimize":    runOptimize,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: predict-mix or optimize")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 15, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, names)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opts := options{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		trace:   *trace == 1,
		clients: min(2, runtime.NumCPU()),
	}
	res, err := wl(opts)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	line, err := encodeResult(res, defs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// encodeResult renders the result line, failing when a metric the
// definitions name is missing.
func encodeResult(res *result, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, make(map[string]value, len(defs))}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	return json.Marshal(out)
}
