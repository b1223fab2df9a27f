package main

import (
	"context"
	"encoding/json"
	"fmt"

	"costream/internal/core"
	"costream/internal/fleet"
	"costream/internal/placement"
)

// The fleet replay runs benchmark-owned crash-cascade scenarios through
// fleet.Run with the fixture predictor in every traced run. They follow
// the shape of examples/crashcascade (edge, fog and cloud zones; the
// cloud core zone fails, load spikes, hosts come back) on a smaller fleet
// with one more event (an edge crash). The q-error threshold is 1, so
// every observation counts as drift: each event re-simulates,
// drift-checks and re-searches every query whatever the model predicts.
const (
	fleetScenarios = 8 // distinct scenarios, each run twice
	fleetQueries   = 2
)

// fleetScenario derives one scenario from a seed.
func fleetScenario(seed int64) *fleet.Scenario {
	maxMoves := 10 * fleetQueries
	noDead := true
	return &fleet.Scenario{
		Name: "bench-cascade",
		Seed: seed,
		Fleet: fleet.FleetSpec{
			Templates: []fleet.HostTemplate{
				{Name: "edge", Grid: "edge", Weight: 1},
				{Name: "fog", Grid: "training", Weight: 1},
				{Name: "cloud", Grid: "cloud", Weight: 1},
			},
			Zones: []fleet.ZoneSpec{
				{Name: "edge-a", Hosts: 16, Templates: []string{"edge"}},
				{Name: "fog-b", Hosts: 10, Templates: []string{"fog"}},
				{Name: "core", Hosts: 8, Templates: []string{"cloud"}},
			},
		},
		Workload: fleet.WorkloadSpec{Queries: fleetQueries, Recipe: "benchmark"},
		Events: []fleet.Event{
			{AtS: 10, Type: fleet.EventZoneOutage, Zone: "core"},
			{AtS: 20, Type: fleet.EventLoadSpike, Factor: 1.5},
			{AtS: 30, Type: fleet.EventHostRecover, Zone: "core", Count: 4},
			{AtS: 40, Type: fleet.EventHostCrash, Zone: "edge-a", Count: 3},
		},
		Recovery: fleet.RecoverySpec{
			QErrorThreshold: 1, MinImprovement: 0.02, CooldownS: 5, Budget: 8,
			Strategy: "local-search", Objective: "min-processing-latency",
		},
		Assertions: fleet.Assertions{MaxMigrations: &maxMoves, NoDeadPlacements: &noDead, RequireAllDeployed: true},
	}
}

// runScenario runs one scenario with the given predictor.
func runScenario(sc *fleet.Scenario, pred placement.Predictor) (*fleet.Report, error) {
	cfg := fleetSimConfig
	return fleet.Run(context.Background(), sc, fleet.RunOptions{Predictor: pred, SimConfig: &cfg, Workers: 1})
}

// fleetReplay runs every scenario twice under a fleet.run span with the
// traced predictor, checks that every report passes its assertions and
// that the second report of a scenario is byte-identical to the first,
// and fills the fleet layer's metrics.
func fleetReplay(m map[string]float64, res *result, pred *core.Predictor, tr *tracer, seed int64) error {
	traced := &tracedPredictor{inner: pred, tr: tr}
	var moves, violations float64
	runs := 0
	for i := 0; i < fleetScenarios; i++ {
		sc := fleetScenario(seed*fleetScenarios + int64(i))
		var first []byte
		for rep := 0; rep < 2; rep++ {
			id := tr.begin("fleet.run", "", 0)
			r, err := runScenario(sc, traced)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("scenario %d: %w", i, err)
			}
			res.check(checkFleetReport(r))
			b, err := json.Marshal(r)
			if err != nil {
				return err
			}
			if first == nil {
				first = b
			} else {
				res.check(checkSameBytes(first, b))
			}
			moves += float64(r.Totals.Migrations + r.Totals.Replacements)
			violations += float64(r.Totals.Violations)
			runs++
		}
	}
	m["fleet.migrations"] = moves / float64(runs)
	m["fleet.violations"] = violations / float64(runs)
	allocs, err := allocsDuring(func() error {
		_, err := runScenario(fleetScenario(seed*fleetScenarios), pred)
		return err
	})
	if err != nil {
		return err
	}
	m["fleet.allocs_per_run"] = float64(allocs)
	return nil
}
