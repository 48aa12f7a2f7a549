package experiments

import (
	"fmt"

	"overlaymatch/internal/lid"
	mreg "overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/workload"
)

// E17StabilityCurve: the convergence trajectory of LID, measured by
// the per-round stability prober (obs.Prober through lid.Run with a
// probe interval). Per topology the event runtime runs under unit
// latency with a probe every unit of virtual time; each probe
// records blocking pairs (under the eq.-9 weight order — the order LID
// actually proposes in), unmatched node mass, the matched-weight
// fraction of the LIC optimum, and cumulative message/byte totals.
//
// Two properties are enforced as hard errors, not just tabulated:
//
//   - Monotone improvement: blocking pairs never increase and the
//     matched-weight fraction never decreases between probes, ending at
//     exactly 0 and exactly 1 (LID terminates in the LIC matching, so
//     the final state is exactly stable under the weight order).
//   - Worker determinism: the full probe-registry snapshot is
//     byte-identical across worker counts (workerSweep).
//
// The summary table reports the rounds-to-ε ladder (first probe time
// with blocking pairs ≤ ε·|E|); the canonical gnp summary is also
// published into cfg.Metrics as stability_rounds_to_eps_* gauges, which
// the run manifest collects into its convergence block.
func E17StabilityCurve(cfg Config) ([]*stats.Table, error) {
	curve := stats.NewTable("E17: rounds vs blocking pairs (probed LID, unit latency)",
		"topology", "n", "round", "blocking pairs", "unmatched", "weight frac", "msgs", "bytes")
	summary := stats.NewTable("E17 summary: rounds to eps-stability (first probe with bp <= eps*|E|)",
		"topology", "n", "eps=0.1", "eps=0.01", "eps=0.001", "eps=0", "workers")
	n := cfg.pick(24, 100)
	for _, topo := range suiteTopologies {
		sys, err := workload.Synthetic{Topology: topo, Metric: "random", N: n, B: 2, Seed: cfg.Seed ^ uint64(17*n)}.Build()
		if err != nil {
			return nil, err
		}

		// The probe registry's snapshot is the fingerprint: any
		// divergence means the telemetry plane leaked scheduling state.
		type probed struct {
			prober *obs.Prober
			reg    *mreg.Registry
		}
		run, err := sameAtEveryWorkerCount("E17 "+topo, func(workers int) (probed, any, error) {
			r := mreg.New()
			res, err := lid.Run(sys, satisfaction.NewTableParallel(sys, workers), simnet.Event(simnet.Options{Seed: cfg.Seed + 17}),
				lid.RunOptions{ProbeInterval: 1, Metrics: r})
			if err != nil {
				return probed{}, nil, err
			}
			return probed{res.Prober, r}, r.Snapshot(), nil
		})
		if err != nil {
			return nil, err
		}
		prober, reg := run.prober, run.reg

		// The monotone-improving invariant, enforced (see the doc
		// comment of obs.StabilitySampler for why each piece holds).
		bp := prober.Curve()
		frac := reg.Series("probe_matched_weight_frac", "").Points()
		for i := 1; i < len(bp); i++ {
			if bp[i].V > bp[i-1].V {
				return nil, fmt.Errorf("E17 %s: blocking pairs increased %v -> %v at t=%v",
					topo, bp[i-1].V, bp[i].V, bp[i].T)
			}
			if frac[i].V < frac[i-1].V {
				return nil, fmt.Errorf("E17 %s: matched-weight fraction decreased at t=%v", topo, frac[i].T)
			}
		}
		if last := bp[len(bp)-1].V; last != 0 {
			return nil, fmt.Errorf("E17 %s: %v blocking pairs at termination, want 0 (LID must end exactly stable)",
				topo, last)
		}
		if last := frac[len(frac)-1].V; last != 1 {
			return nil, fmt.Errorf("E17 %s: final weight fraction %v, want 1 (LID must end in the LIC matching)",
				topo, last)
		}

		unmatched := reg.Series("probe_unmatched_nodes", "").Points()
		msgs := reg.Series("probe_msgs_sent", "").Points()
		bytes := reg.Series("probe_bytes_sent", "").Points()
		for i := range bp {
			curve.AddRowf(topo, n, bp[i].T, int64(bp[i].V), int64(unmatched[i].V),
				frac[i].V, int64(msgs[i].V), int64(bytes[i].V))
		}
		// Rungs are read through obs.SummaryValue, never by bare map
		// index: an absent rung must render as the NeverConverged
		// sentinel, not as the zero value (instant convergence).
		s := prober.RoundsToEps(nil)
		summary.AddRowf(topo, n,
			obs.SummaryValue(s, 0.1), obs.SummaryValue(s, 0.01),
			obs.SummaryValue(s, 0.001), obs.SummaryValue(s, 0),
			fmt.Sprintf("identical x%d", len(workerSweep)))
		if topo == "gnp" {
			// The canonical workload's summary feeds the run manifest
			// (nil-safe when no sink registry is attached).
			prober.PublishSummary(cfg.Metrics, nil)
		}
	}
	return []*stats.Table{curve, summary}, nil
}
