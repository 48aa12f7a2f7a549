package experiments

import (
	"fmt"

	"overlaymatch/internal/faults"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/phased"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/robust"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/variants"
	"overlaymatch/internal/workload"
)

// E11LossyLinks: the paper assumes reliable links; E11 runs LID through
// the ack/retransmit substrate (package reliable) over 0–50% uniform
// message loss (a faults.Spec{Drop: p} link policy) and verifies the
// outcome still equals LIC, reporting the transport overhead the
// assumption really costs.
func E11LossyLinks(cfg Config) ([]*stats.Table, error) {
	t := stats.NewTable("E11: LID over lossy links with the reliability substrate",
		"loss", "runs", "equal to LIC", "frames sent", "retransmits", "dup suppressed", "rounds")
	n := cfg.pick(25, 80)
	runs := cfg.pick(4, 20)
	for _, loss := range []float64{0, 0.1, 0.2, 0.3, 0.5} {
		equal, frames, retrans, dups := 0, 0, 0, 0
		var rounds float64
		for r := 0; r < runs; r++ {
			sys, err := workload.OracleGNP(cfg.Seed+uint64(r)*7919, n, 8.0/float64(n-1), 2)
			if err != nil {
				return nil, err
			}
			tbl := satisfaction.NewTable(sys)
			// The loss coins come from the injector's own stream, salted
			// as overlaysim salts its -faults-seed default: rng.New seeds
			// both the Runner and the injector, so the bare seed would
			// draw the drops from the latency stream.
			seed := cfg.Seed + uint64(r) + uint64(loss*1000)
			var policy simnet.LinkPolicy
			if loss > 0 {
				policy = faults.NewInjector(faults.Spec{Drop: loss}, seed^0x5fa715ca11edc0de)
			}
			res, err := lid.Run(sys, tbl, simnet.Event(simnet.Options{
				Seed:    seed,
				Policy:  policy,
				Latency: simnet.ExponentialLatency(3),
			}), lid.RunOptions{Stack: stack.Spec{Reliable: reliable.Config{RTO: 30}}, Metrics: cfg.Metrics})
			if err != nil {
				return nil, fmt.Errorf("E11 loss=%.1f: %w", loss, err)
			}
			if res.Matching.Equal(matching.LIC(sys, tbl)) {
				equal++
			}
			eps := res.Layers.Endpoints
			frames += res.Stats.TotalSent()
			retrans += reliable.TotalRetransmits(eps)
			dups += reliable.TotalDuplicates(eps)
			rounds += res.Stats.FinalTime
		}
		t.AddRowf(loss, runs, equal, frames/runs, retrans/runs, dups/runs, rounds/float64(runs))
		if equal != runs {
			return nil, fmt.Errorf("E11: loss %.1f broke the LIC equivalence (%d/%d)", loss, equal, runs)
		}
	}
	return []*stats.Table{t}, nil
}

// E12Adversaries (§7 "malicious nodes"): hardened TolerantNode against
// crash, crash-after and spammer adversaries at increasing fractions.
// Reported: honest satisfaction relative to the adversary-free LIC on
// the honest subgraph, revocations/dissolutions, dead locks.
func E12Adversaries(cfg Config) ([]*stats.Table, error) {
	t := stats.NewTable("E12 (§7): honest satisfaction under adversaries (tolerant LID)",
		"adversary", "fraction", "runs", "sat ratio mean", "sat ratio min",
		"revocations", "dissolved", "dead locks")
	n := cfg.pick(30, 100)
	runs := cfg.pick(4, 20)
	for _, kind := range []robust.AdversaryKind{robust.AdvCrash, robust.AdvCrashAfter, robust.AdvSpammer} {
		for _, frac := range []float64{0.1, 0.2, 0.3} {
			var ratios []float64
			rev, dis, dead := 0, 0, 0
			for r := 0; r < runs; r++ {
				sys, err := workload.OracleGNP(cfg.Seed+uint64(r)*104729, n, 8.0/float64(n-1), 2)
				if err != nil {
					return nil, err
				}
				sc := robust.Scenario{
					System:      sys,
					Adversaries: robust.FractionAdversaries(n, frac, kind),
					Timeout:     60,
					CrashAfterK: 3,
				}
				out, err := sc.Run(simnet.Event(simnet.Options{
					Seed:    cfg.Seed + uint64(r),
					Latency: simnet.UniformLatency(1, 3),
				}), stack.Options{})
				if err != nil {
					return nil, fmt.Errorf("E12 %v/%v: %w", kind, frac, err)
				}
				if out.BaselineSatisfaction > 0 {
					ratios = append(ratios, out.HonestSatisfaction/out.BaselineSatisfaction)
				}
				rev += out.Revocations
				dis += out.DissolvedLocks
				dead += out.DeadLocks
			}
			if len(ratios) == 0 {
				continue
			}
			sum := stats.Summarize(ratios)
			t.AddRowf(kind.String(), frac, sum.N, sum.Mean, sum.Min, rev, dis, dead)
		}
	}
	return []*stats.Table{t}, nil
}

// E13Variants (§7 ablations): coverage-first vs LIC on worst-off
// metrics, and the local-search pass's gap closure toward the exact
// optimum.
func E13Variants(cfg Config) ([]*stats.Table, error) {
	coverage := stats.NewTable("E13a (§7): coverage-first vs LIC (worst-off peers); 'dist' = distributed two-phase protocol equality",
		"topology", "b", "LIC zero-conn", "cov zero-conn", "LIC min sat", "cov min sat",
		"LIC total sat", "cov total sat", "dist")
	n := cfg.pick(40, 150)
	for _, topo := range suiteTopologies {
		for _, b := range []int{2, 3} {
			sys, err := workload.Synthetic{Topology: topo, Metric: "random", N: n, B: b, Seed: cfg.Seed ^ 0x13a ^ uint64(b)}.Build()
			if err != nil {
				return nil, err
			}
			tbl := satisfaction.NewTable(sys)
			lic := matching.LIC(sys, tbl)
			cov := variants.CoverageFirst(sys, tbl)
			dist, err := phased.Run(sys, tbl, simnet.Event(simnet.Options{
				Seed:    cfg.Seed + uint64(b),
				Latency: simnet.ExponentialLatency(4),
			}), stack.Options{})
			if err != nil {
				return nil, fmt.Errorf("E13 phased: %w", err)
			}
			distEq := "=="
			if !dist.Matching.Equal(cov) {
				distEq = "DIFFERS"
			}
			coverage.AddRowf(topo, b,
				zeroConn(sys, lic), zeroConn(sys, cov),
				stats.Min(lic.PerNodeSatisfaction(sys)), stats.Min(cov.PerNodeSatisfaction(sys)),
				lic.TotalSatisfaction(sys), cov.TotalSatisfaction(sys), distEq)
			if distEq != "==" {
				return nil, fmt.Errorf("E13: distributed coverage-first diverged on %s b=%d", topo, b)
			}
		}
	}

	improve := stats.NewTable("E13b (§7): local-search pass closing the LIC-to-OPT gap",
		"instances", "LIC/OPT mean", "improved/OPT mean", "gap closed", "augmentations")
	var licSum, impSum, optSum float64
	augs := 0
	count := 0
	seeds := cfg.pick(10, 60)
	for s := 0; s < seeds; s++ {
		sys, err := workload.OracleGNP(cfg.Seed+uint64(s)*31, 10, 0.4, 2)
		if err != nil {
			return nil, err
		}
		if sys.Graph().NumEdges() > matching.MaxOracleEdges || sys.Graph().NumEdges() == 0 {
			continue
		}
		tbl := satisfaction.NewTable(sys)
		lic := matching.LIC(sys, tbl)
		licW := lic.Weight(sys)
		imp := lic.Clone()
		ist := variants.Improve(sys, tbl, imp)
		_, optW, err := matching.MaxWeightBMatching(sys, tbl)
		if err != nil {
			return nil, err
		}
		if optW == 0 {
			continue
		}
		licSum += licW
		impSum += imp.Weight(sys)
		optSum += optW
		augs += ist.Augmentations
		count++
	}
	if count > 0 {
		gapClosed := 0.0
		if optSum > licSum {
			gapClosed = (impSum - licSum) / (optSum - licSum)
		}
		improve.AddRowf(count, licSum/optSum, impSum/optSum, gapClosed, augs)
	}
	return []*stats.Table{coverage, improve}, nil
}

// zeroConn counts non-isolated peers that ended with no connection.
func zeroConn(sys *pref.System, m *matching.Matching) int {
	c := 0
	for i := 0; i < sys.Graph().NumNodes(); i++ {
		if sys.Graph().Degree(i) > 0 && m.DegreeOf(i) == 0 {
			c++
		}
	}
	return c
}
