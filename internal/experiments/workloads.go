// Package experiments implements the empirical validation suite of
// DESIGN.md §3. The paper (IPDPS 2010) is an algorithms paper with no
// experimental tables or figures of its own — its claims are theorems —
// so the reproduction's "tables and figures" are one experiment per
// theorem/lemma plus the scaling studies a systems audience expects:
//
//	E1  Theorem 2  — LIC ≥ ½·OPT on the weight objective
//	E2  Lemmas 3–6 — LID ≡ LIC under arbitrary asynchrony
//	E3  Theorem 3  — LID satisfaction ≥ ¼(1+1/bmax)·OPT
//	E4  Lemma 1    — static-share lower bound ½(1+1/b)
//	E5  Lemma 5    — termination + message complexity
//	E6  convergence time (causal rounds)
//	E7  baseline comparison (random / selfish / best-response)
//	E8  eq.-1/eq.-4 identities (the Fig.-1 worked example, quantified)
//	E9  §7 churn extension — repair cost and quality
//	E10 wall-clock scalability of LIC and both LID runtimes
//
// Every experiment is deterministic given Config.Seed and returns
// stats.Tables; cmd/experiments renders them and EXPERIMENTS.md records
// claimed-versus-measured values.
package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/faults"
	mreg "overlaymatch/internal/metrics"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/simnet"
)

// Config parameterizes a run of the suite.
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
	// Faults, when non-nil, is the link-level adversary threaded into
	// the message-level experiments (E2, E5, E6 and E15's custom row)
	// as a simnet.LinkPolicy. The zero spec constructs an injector
	// that never fires and leaves every table byte-identical to a nil
	// Faults — the hook's no-op guarantee. Non-delivery-preserving
	// specs (drops, corruption) make the bare-LID experiments fail
	// honestly; E15 is the experiment designed to run them, through
	// the reliable substrate.
	Faults *faults.Spec
	// FaultsSeed salts the injection streams of the Faults spec (the
	// E2/E5/E6 policy and E15's custom rung), so that adversary varies
	// independently of the workload seed. Built-in fault schedules,
	// E15's ladder and E16's crash window, draw from Seed alone.
	FaultsSeed uint64
	// RTO overrides the retransmission timeout of the
	// transport-backed experiments (E11, E15); 0 keeps the historical
	// default of 30 virtual time units, so default tables stay
	// byte-identical.
	RTO float64
	// AdaptiveRTO switches the transport-backed experiments to the
	// RFC-6298 adaptive estimator (reliable.Config.Adaptive). Off by
	// default for the same byte-stability reason.
	AdaptiveRTO bool
	// Detector, when non-nil, overrides the failure-detector
	// configuration of the self-healing experiment (E16); nil means
	// detector.Default().
	Detector *detector.Config
	// ProbeInterval is the virtual-time spacing of the per-round
	// stability probes (E17); 0 means 1, one probe per unit-latency
	// round.
	ProbeInterval float64
	// Churn overrides the membership feed of the churn-survival
	// experiment (E19); the zero spec keeps E19's built-in feed, so
	// default tables stay byte-identical.
	Churn dynamic.ChurnSpec
	// RepairRounds, when positive, replaces E19's truncated-budget
	// sweep {1, 2, 4} with the single budget k = RepairRounds. 0 keeps
	// the sweep.
	RepairRounds int
	// ShedDepth overrides the shedding threshold of E19's overload
	// row; 0 keeps the built-in depth of 2.
	ShedDepth int
}

// probeInterval resolves the stability-probe spacing.
func (c Config) probeInterval() float64 {
	if c.ProbeInterval > 0 {
		return c.ProbeInterval
	}
	return 1
}

// policy returns the fault-injection policy for one run (nil when no
// adversary is configured). salt decorrelates the injection streams of
// different runs within one experiment.
func (c Config) policy(salt uint64) simnet.LinkPolicy {
	if c.Faults == nil {
		return nil
	}
	return faults.NewInjector(*c.Faults, c.FaultsSeed^(salt*0x9e3779b97f4a7c15+0x7f4a7c15))
}

// reliableConfig is the transport configuration of the
// transport-backed experiments; the zero Config reproduces the
// historical static RTO of 30.
func (c Config) reliableConfig() reliable.Config {
	rto := c.RTO
	if rto <= 0 {
		rto = 30
	}
	return reliable.Config{RTO: rto, Adaptive: c.AdaptiveRTO}
}

// detectorConfig is E16's failure-detector configuration.
func (c Config) detectorConfig() detector.Config {
	if c.Detector != nil {
		return *c.Detector
	}
	return detector.Default()
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
