package main

import (
	"encoding/json"
	"fmt"
	"runtime"

	"costream/internal/core"
	"costream/internal/dataset"
)

// workersCheckTraces is the corpus size of the reduced training that
// compares Workers 1 against the CPU count.
const workersCheckTraces = 32

// checkWorkersInvariant trains a reduced configuration (one epoch, one
// member, every metric) with one worker and with one per CPU and checks
// that the weights are identical, as core.TrainConfig promises.
func checkWorkersInvariant(train, val *dataset.Corpus, seed int64) error {
	small := &dataset.Corpus{Traces: train.Traces[:min(workersCheckTraces, len(train.Traces))]}
	var out [2][]byte
	for i, workers := range []int{1, runtime.NumCPU()} {
		cfg := fixtureConfig(seed)
		cfg.EnsembleSize = 1
		cfg.Train.Workers = workers
		pred, err := core.TrainPredictor(small, val, cfg)
		if err != nil {
			return err
		}
		if out[i], err = json.Marshal(pred); err != nil {
			return err
		}
	}
	if err := checkSameBytes(out[0], out[1]); err != nil {
		return fmt.Errorf("weights differ between Workers 1 and %d: %w", runtime.NumCPU(), err)
	}
	return nil
}
