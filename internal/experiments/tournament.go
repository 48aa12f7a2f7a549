package experiments

import (
	"fmt"

	"overlaymatch/internal/faults"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/stack"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/tournament"
	"overlaymatch/internal/workload"
)

// E18Tournament: the stability tournament. One production-shaped
// scenario per workload family (workload.DefaultSuite) hosts the three
// contenders — LID (the paper's Algorithm 1), a distributed
// Gale–Shapley propose/accept loop over the same shared eq.-9 weight
// order, and the Barenboim–Oren-style one-round backup placement — and
// every (scenario, algorithm) cell is scored with the PR 6 stability
// yardsticks: matched-weight fraction of the LIC optimum, blocking
// pairs under the weight order, the rounds-to-ε ladder, and cumulative
// message/byte cost.
//
// Beyond tabulating the bracket, four properties are enforced as hard
// errors:
//
//   - LID ends exactly stable on every scenario: weight fraction
//     exactly 1 and exactly 0 blocking pairs (Lemmas 3–6: LID
//     terminates in LIC, and LIC is stable under the shared order).
//   - On every non-adversarial scenario no contender beats LID's
//     weight fraction (the adversarial families master/antilocal are
//     exactly the distributions built to dethrone greedy locality, so
//     they are exempt — that is what makes them interesting columns).
//   - Every cell's stability accounting is populated: the full
//     rounds-to-ε ladder, positive message and byte totals, ranks a
//     strict 1..k per scenario.
//   - The whole bracket is byte-identical across worker counts
//     (workerSweep) and the instance derivation is spec-keyed, so the
//     bracket a CLI replay of any single spec produces agrees with the
//     suite's cell.
//
// A second, faulted axis reruns the bracket under a seeded pair of
// healing crash windows with the reliable transport stacked beneath
// every contender. Only the fault-tolerant contenders enter
// (tournament.FaultTolerantAlgorithms — Gale–Shapley's FSM needs
// per-link FIFO delivery, which retransmission violates); the gates
// weaken accordingly: every cell must still be valid with weight
// fraction in [0, 1], and LID must re-stabilize completely (weight
// fraction 1, zero blocking pairs) on the non-adversarial families
// once the windows heal. Worker byte-identity holds here too.
func E18Tournament(cfg Config) ([]*stats.Table, error) {
	n := cfg.pick(48, 240)
	specs := workload.DefaultSuite(n)
	opts := tournament.Options{Seed: cfg.Seed + 18}

	results, err := runBracket("E18", specs, tournament.DefaultAlgorithms(), opts)
	if err != nil {
		return nil, err
	}

	bracket := stats.NewTable("E18: stability tournament (scenario x algorithm, ranked per scenario)",
		"scenario", "alg", "rank", "weight frac", "blocking pairs", "unmatched",
		"eps=0.01", "eps=0", "msgs", "bytes", "final t")
	summary := stats.NewTable("E18 summary: per-scenario podium",
		"scenario", "spec", "n", "edges", "winner", "lid frac", "gs frac", "bp frac", "workers")

	for _, r := range results {
		frac := map[string]float64{}
		var lidCell *tournament.Cell
		for i := range r.Cells {
			c := &r.Cells[i]
			if c.Rank != i+1 {
				return nil, fmt.Errorf("E18 %s: cell %d carries rank %d", r.Spec, i, c.Rank)
			}
			if c.Msgs <= 0 || c.Bytes <= 0 {
				return nil, fmt.Errorf("E18 %s/%s: empty message accounting (msgs=%d bytes=%d)",
					r.Spec, c.Algorithm, c.Msgs, c.Bytes)
			}
			for _, eps := range obs.Epsilons {
				if _, ok := c.RoundsToEps[obs.EpsKey(eps)]; !ok {
					return nil, fmt.Errorf("E18 %s/%s: rounds-to-eps ladder misses %s", r.Spec, c.Algorithm, obs.EpsKey(eps))
				}
			}
			frac[c.Algorithm] = c.WeightFrac
			if c.Algorithm == "lid" {
				lidCell = c
			}
			bracket.AddRowf(c.Scenario, c.Algorithm, c.Rank,
				fmt.Sprintf("%.4f", c.WeightFrac), c.BlockingPairs, c.Unmatched,
				obs.SummaryValue(c.RoundsToEps, 0.01), obs.SummaryValue(c.RoundsToEps, 0),
				c.Msgs, c.Bytes, c.FinalTime)
		}
		if lidCell == nil {
			return nil, fmt.Errorf("E18 %s: no LID cell", r.Spec)
		}
		if lidCell.WeightFrac != 1 || lidCell.BlockingPairs != 0 {
			return nil, fmt.Errorf("E18 %s: LID ended at weight frac %v with %d blocking pairs — LID must terminate in LIC, exactly stable",
				r.Spec, lidCell.WeightFrac, lidCell.BlockingPairs)
		}
		for _, c := range r.Cells {
			if !r.Spec.Adversarial() && c.WeightFrac > lidCell.WeightFrac {
				return nil, fmt.Errorf("E18 %s: %s weight fraction %v beats LID's %v on a non-adversarial scenario",
					r.Spec, c.Algorithm, c.WeightFrac, lidCell.WeightFrac)
			}
		}
		win := r.Cells[0]
		summary.AddRowf(win.Scenario, r.Spec.String(), win.N, win.Edges, win.Algorithm,
			fmt.Sprintf("%.4f", frac["lid"]), fmt.Sprintf("%.4f", frac["gs"]), fmt.Sprintf("%.4f", frac["bp"]),
			fmt.Sprintf("identical x%d", len(workerSweep)))
	}

	faulted, err := e18Faulted(cfg, specs)
	if err != nil {
		return nil, err
	}
	return []*stats.Table{bracket, summary, faulted}, nil
}

// e18Faulted runs E18's faulted axis: the fault-tolerant contenders on
// the same scenario suite under two seeded healing crash windows, with
// the reliable transport restoring exactly-once delivery. The injector
// is rebuilt per cell from the same seed, so the adversary's schedule
// is identical across contenders and worker counts.
func e18Faulted(cfg Config, specs []workload.Spec) (*stats.Table, error) {
	n := cfg.pick(48, 240)
	fs := faults.Spec{Crashes: []faults.Crash{
		{Start: 3, End: 25, Node: 2},
		{Start: 10, End: 30, Node: (n - 1) / 2},
	}}
	if err := fs.Validate(); err != nil {
		return nil, fmt.Errorf("E18 faulted: %w", err)
	}
	opts := tournament.Options{
		Seed:       cfg.Seed + 18,
		Faults:     fs,
		FaultsSeed: cfg.Seed*77 + 18,
		Stack:      stack.Spec{Reliable: reliable.Config{RTO: 15, Adaptive: true}},
	}

	results, err := runBracket("E18 faulted", specs, tournament.FaultTolerantAlgorithms(), opts)
	if err != nil {
		return nil, err
	}

	table := stats.NewTable("E18 faulted bracket: crash windows + reliable transport (fault-tolerant contenders)",
		"scenario", "alg", "rank", "weight frac", "blocking pairs", "unmatched", "msgs", "bytes", "final t")
	for _, r := range results {
		for _, c := range r.Cells {
			if c.WeightFrac < 0 || c.WeightFrac > 1+1e-9 {
				return nil, fmt.Errorf("E18 faulted %s/%s: weight fraction %v out of [0,1]",
					r.Spec, c.Algorithm, c.WeightFrac)
			}
			if c.Algorithm == "lid" && !r.Spec.Adversarial() {
				if c.WeightFrac != 1 || c.BlockingPairs != 0 {
					return nil, fmt.Errorf("E18 faulted %s: LID ended at weight frac %v with %d blocking pairs — repair must resynchronize after the windows heal",
						r.Spec, c.WeightFrac, c.BlockingPairs)
				}
			}
			table.AddRowf(c.Scenario, c.Algorithm, c.Rank,
				fmt.Sprintf("%.4f", c.WeightFrac), c.BlockingPairs, c.Unmatched,
				c.Msgs, c.Bytes, c.FinalTime)
		}
	}
	return table, nil
}

// runBracket runs the bracket at every count of workerSweep; the whole
// scored bracket, every cell of every scenario, must be byte-identical.
func runBracket(cell string, specs []workload.Spec, algs []tournament.Algorithm, opts tournament.Options) ([]tournament.ScenarioResult, error) {
	return sameAtEveryWorkerCount(cell, func(workers int) ([]tournament.ScenarioResult, any, error) {
		opts.Workers = workers
		res, err := tournament.RunBracket(specs, algs, opts)
		return res, res, err
	})
}
