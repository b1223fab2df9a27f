package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// minTail is the number of samples that must lie beyond a reported
// percentile: a percentile with fewer is no tail.
const minTail = 10

// setupRepeats is how many times each workload repeats its set-up;
// setup_s is the median, so one slow repetition does not move it.
const setupRepeats = 5

// percentile returns the nearest-rank q-quantile of the ascending
// samples. It fails when fewer than minTail samples lie beyond it.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	rank := int(math.Ceil(q * float64(n)))
	rank = max(1, min(rank, n))
	if beyond := n - rank; beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", q*100, n, beyond, minTail)
	}
	return sorted[rank-1], nil
}

// minSamplesFor is the sample count at which percentile(q) is defined.
func minSamplesFor(q float64) int {
	return int(math.Ceil(minTail/(1-q))) + 1
}

// median returns the median of xs (xs is not modified).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// mean returns the arithmetic mean of xs, 0 for none.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// timedSetup runs fn setupRepeats times and returns the last value with
// the median wall time of a repetition in seconds.
func timedSetup[T any](fn func() (T, error)) (T, float64, error) {
	var v T
	secs := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if v, err = fn(); err != nil {
			return v, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return v, median(secs), nil
}

// warmUp is how long every workload runs its own operations, untimed,
// before the timed phase. Besides filling caches and pools it brings the
// machine to its loaded speed: on the 2-vCPU virtual machine this
// benchmark was tuned on, a CPU-bound loop runs up to twice as fast after
// about ten seconds of sustained load as it does after idling.
const warmUp = 8 * time.Second

// loopStats is the outcome of a closed-loop phase.
type loopStats struct {
	latMS   []float64 // per-operation latency, ascending
	ops     int64
	failed  int64
	elapsed time.Duration // start to the last completion
}

// closedLoop runs clients closed-loop clients over operations first,
// first+1, ... (first a multiple of roundLen). A client claims a whole
// round of roundLen consecutive operations, runs them back to back, and
// claims the next round, until the phase has lasted d and at least
// minOps operations are done (capped at 3d). Every run therefore attempts
// whole rounds of the same operation sequence, and the operations run
// are exactly first .. first+ops-1.
func closedLoop(clients, roundLen, first int, d time.Duration, minOps int, op func(i int) error) loopStats {
	var next atomic.Int64
	lats := make([][]float64, clients)
	var failed atomic.Int64
	var lastEnd atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				r := next.Add(1) - 1
				since := time.Since(start)
				if since >= 3*d || (since >= d && int(r)*roundLen >= minOps) {
					return
				}
				for k := 0; k < roundLen; k++ {
					t0 := time.Now()
					err := op(first + int(r)*roundLen + k)
					t1 := time.Now()
					lats[c] = append(lats[c], float64(t1.Sub(t0).Nanoseconds())/1e6)
					if err != nil {
						failed.Add(1)
					}
					end := t1.Sub(start).Nanoseconds()
					for {
						cur := lastEnd.Load()
						if end <= cur || lastEnd.CompareAndSwap(cur, end) {
							break
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	var all []float64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Float64s(all)
	return loopStats{latMS: all, ops: int64(len(all)), failed: failed.Load(), elapsed: time.Duration(lastEnd.Load())}
}

// heapLiveMB forces collections and returns the heap still in use, in
// MB (10^6 bytes). The second collection also frees what sync.Pools
// held through the first.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// allocsDuring returns the heap allocations made while fn ran; fn should
// run alone for the count to be its own.
func allocsDuring(fn func() error) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, err
}

// latencyMetrics fills the end-to-end latency and throughput metrics
// from a closed-loop phase.
func latencyMetrics(m map[string]float64, ls loopStats) error {
	p50, err := percentile(ls.latMS, 0.50)
	if err != nil {
		return err
	}
	p99, err := percentile(ls.latMS, 0.99)
	if err != nil {
		return err
	}
	m["latency_p50_ms"] = p50
	m["latency_p99_ms"] = p99
	m["throughput_per_s"] = float64(ls.ops) / ls.elapsed.Seconds()
	return nil
}
