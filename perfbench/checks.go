package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"costream/internal/core"
	"costream/internal/fleet"
	"costream/internal/hardware"
	"costream/internal/placement"
	"costream/internal/serve"
	"costream/internal/stream"
)

// Output checks. Each rests on an independent computation or on a
// property the method must have, never on a stored copy of earlier
// output; each returns an error naming what is wrong.

// costTolerance bounds the relative gap between a served cost and its
// reference; the inference kernels claim bit-identity with the
// training-time pass, and JSON floats round-trip exactly.
const costTolerance = 1e-9

// checkSameBytes checks a repeated response against the first response
// for the same request.
func checkSameBytes(first, got []byte) error {
	if !bytes.Equal(first, got) {
		return fmt.Errorf("response differs from the first response to the same request: %q vs %q", clip(got), clip(first))
	}
	return nil
}

func clip(b []byte) string {
	if len(b) > 120 {
		return string(b[:120]) + "..."
	}
	return string(b)
}

// checkCosts checks served costs against their reference: regression
// values finite and within costTolerance, labels equal unless a member
// vote was ambiguous.
func checkCosts(ref refCosts, got serve.Costs) error {
	vals := []struct {
		name      string
		got, want float64
	}{
		{"throughput_tps", got.ThroughputTPS, ref.costs.ThroughputTPS},
		{"proc_latency_ms", got.ProcLatencyMS, ref.costs.ProcLatencyMS},
		{"e2e_latency_ms", got.E2ELatencyMS, ref.costs.E2ELatencyMS},
	}
	for _, v := range vals {
		if math.IsNaN(v.got) || math.IsInf(v.got, 0) {
			return fmt.Errorf("%s is not finite: %v", v.name, v.got)
		}
		if math.Abs(v.got-v.want) > costTolerance*math.Max(1, math.Abs(v.want)) {
			return fmt.Errorf("%s = %v, reference %v", v.name, v.got, v.want)
		}
	}
	if !ref.ambiguous && (got.Success != ref.costs.Success || got.Backpressured != ref.costs.Backpressured) {
		return fmt.Errorf("labels success=%v backpressured=%v, reference %v/%v",
			got.Success, got.Backpressured, ref.costs.Success, ref.costs.Backpressured)
	}
	return nil
}

// checkPredictResponse decodes a /v1/predict response and checks its
// costs against the reference for the request.
func checkPredictResponse(pr *core.Predictor, req serve.PredictRequest, body []byte) error {
	var resp serve.PredictResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("decoding predict response: %v", err)
	}
	ref, err := referenceCosts(pr, req.Query, req.Cluster, req.Placement)
	if err != nil {
		return err
	}
	return checkCosts(ref, resp.Costs)
}

// checkOptimizeResponse decodes a /v1/optimize response, checks that the
// placement is valid for the request and that its reported costs match
// the reference.
func checkOptimizeResponse(pr *core.Predictor, q *stream.Query, c *hardware.Cluster, body []byte) (serve.OptimizeResponse, error) {
	var resp serve.OptimizeResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, fmt.Errorf("decoding optimize response: %v", err)
	}
	if !placement.Valid(q, c, resp.Placement) {
		return resp, fmt.Errorf("placement %v is not valid for the request", resp.Placement)
	}
	ref, err := referenceCosts(pr, q, c, resp.Placement)
	if err != nil {
		return resp, err
	}
	if err := checkCosts(ref, resp.Costs); err != nil {
		return resp, fmt.Errorf("placement %v: %w", resp.Placement, err)
	}
	return resp, nil
}

// checkFleetReport checks that every scenario assertion passed and that
// the no-dead-placements assertion was evaluated.
func checkFleetReport(rep *fleet.Report) error {
	sawDead := false
	for _, a := range rep.Assertions {
		if !a.Pass {
			return fmt.Errorf("assertion %s failed: %s", a.Name, a.Detail)
		}
		sawDead = sawDead || a.Name == "no-dead-placements"
	}
	if !sawDead {
		return fmt.Errorf("no-dead-placements was not evaluated")
	}
	if !rep.Pass {
		return fmt.Errorf("report does not pass")
	}
	return nil
}

// checkFiniteWeights checks every weight of every member of pr.
func checkFiniteWeights(pr *core.Predictor) error {
	for _, me := range pr.Ensembles() {
		if me.Ensemble == nil {
			continue
		}
		for i, m := range me.Ensemble.Models {
			params, _ := m.Net.Params()
			for _, p := range params {
				for _, w := range p {
					if math.IsNaN(w) || math.IsInf(w, 0) {
						return fmt.Errorf("%v member %d has a non-finite weight", me.Metric, i)
					}
				}
			}
		}
	}
	return nil
}
