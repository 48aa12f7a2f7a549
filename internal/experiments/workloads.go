// Package experiments implements the empirical validation suite of
// DESIGN.md §3. The paper (IPDPS 2010) is an algorithms paper with no
// experimental tables or figures of its own — its claims are theorems —
// so the reproduction's "tables and figures" are one experiment per
// theorem/lemma plus the scaling studies and §7 extensions a systems
// audience expects. All returns the registry; EXPERIMENTS.md records
// each experiment's claim against its measured values.
//
// Every experiment is deterministic given Config.Seed and runs one
// fixed configuration; cmd/experiments renders the returned
// stats.Tables.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"

	mreg "overlaymatch/internal/metrics"
)

// Config parameterizes a run of the suite. It holds only what every
// experiment shares: each experiment fixes its own link policy,
// transport, detector, probe spacing and churn feed, and the run
// manifest records every field but the Metrics sink.
type Config struct {
	// Seed drives every workload and latency draw.
	Seed uint64
	// Quick shrinks sizes/repetitions so the whole suite runs in
	// seconds; the full suite is sized for minutes. Tests use Quick.
	Quick bool
	// Workers bounds the parallelism of embarrassingly-parallel sweeps
	// (the exact-oracle comparisons); 0 means GOMAXPROCS. Output is
	// bit-identical for any worker count.
	Workers int
	// Metrics, when non-nil, is the shared sink registry the
	// experiments publish into: E5, E6, E11, E14, E15 and E16 merge
	// their runs' simnet_* series and protocol counters, E10 its
	// wall-clock gauges, E16 its detector verdicts and E17 its
	// rounds-to-ε summary. Purely additive: the tables are computed
	// from the per-run views and are bit-identical with or without it.
	Metrics *mreg.Registry
}

func (c Config) pick(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

// suiteTopologies are the suite's standard overlay families at average
// degree ≈ 8 (the workload.Synthetic defaults): G(n,p), random
// geometric and Barabási–Albert.
var suiteTopologies = []string{"gnp", "geometric", "ba"}

// workerSweep is the worker counts of the suite's determinism checks
// (E17–E20). Workers only parallelize deterministic builds, so each
// check reruns one cell per count and requires byte-identical results.
var workerSweep = []int{1, 2, 4}

// sameAtEveryWorkerCount runs one cell once per count of workerSweep
// and returns the first run's result. run returns its result and a
// fingerprint whose JSON form must be byte-identical at every count;
// the first count that differs fails, named in the error.
func sameAtEveryWorkerCount[T any](cell string, run func(workers int) (T, any, error)) (T, error) {
	var (
		first    T
		baseline []byte
	)
	for i, workers := range workerSweep {
		res, fingerprint, err := run(workers)
		if err != nil {
			return first, fmt.Errorf("%s workers=%d: %w", cell, workers, err)
		}
		raw, err := json.Marshal(fingerprint)
		if err != nil {
			return first, err
		}
		if i == 0 {
			first, baseline = res, raw
		} else if !bytes.Equal(raw, baseline) {
			return first, fmt.Errorf("%s: the run with %d workers differs from the run with %d — the result must not depend on scheduling",
				cell, workers, workerSweep[0])
		}
	}
	return first, nil
}
