package experiments

import (
	"fmt"

	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	mreg "overlaymatch/internal/metrics"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/workload"
)

// e20ImprovedFamilies is the acceptance floor: the greedy scheduler
// must cut messages or rounds by at least e20MinReduction percent on
// at least this many families, or the experiment fails.
const (
	e20ImprovedFamilies = 2
	e20MinReduction     = 20.0
)

// E20GreedyScheduler: the payoff of heaviest-frontier admission
// scheduling (DESIGN.md §13). Per family — the three random E-registry
// topologies plus every internal/workload scenario family — LID runs
// once under the canonical all-at-time-0 admission sweep and once
// under -scheduler greedy, both on the unit-latency event runtime with
// the same seed. The table reports total messages and convergence
// rounds (virtual FinalTime — causal rounds under unit latency) for
// both schedules and the percentage reductions.
//
// Three properties are enforced as hard errors, not just tabulated:
//
//   - Exactness: both schedules terminate in exactly the LIC matching
//     (the scheduler is a scheduling win, never a quality trade).
//   - Worker determinism: the greedy run's full metric snapshot is
//     byte-identical across worker counts (workerSweep).
//   - Payoff: at least 2 families see >= 20% reduction in messages or
//     rounds. Greedy serializes admission into drain-separated
//     batches, so rounds typically grow while messages shrink — the
//     OR keeps the criterion honest about which axis a family wins on.
func E20GreedyScheduler(cfg Config) ([]*stats.Table, error) {
	table := stats.NewTable("E20: canonical vs greedy admission scheduling (unit latency)",
		"family", "n", "b", "msgs canonical", "msgs greedy", "msg red %",
		"rounds canonical", "rounds greedy", "round red %")

	type e20Case struct {
		name string
		sys  *pref.System
	}
	var cases []e20Case
	n := cfg.pick(32, 200)
	for _, topo := range suiteTopologies {
		sys, err := workload.Synthetic{Topology: topo, Metric: "random", N: n, B: 3, Seed: cfg.Seed ^ uint64(20*n)}.Build()
		if err != nil {
			return nil, err
		}
		cases = append(cases, e20Case{topo, sys})
	}
	wn := cfg.pick(48, 256)
	for _, spec := range workload.DefaultSuite(wn) {
		inst, err := workload.Build(spec, cfg.Seed^0x20e2, cfg.Workers)
		if err != nil {
			return nil, fmt.Errorf("E20 %s: %w", spec.Family, err)
		}
		cases = append(cases, e20Case{spec.Family, inst.System})
	}

	improved := 0
	for i, c := range cases {
		sys := c.sys
		tbl := satisfaction.NewTable(sys)
		want := matching.LIC(sys, tbl)
		opts := simnet.Options{Seed: cfg.Seed + uint64(200+i)}

		canon, err := lid.RunEvent(sys, tbl, opts)
		if err != nil {
			return nil, fmt.Errorf("E20 %s canonical: %w", c.name, err)
		}
		if !canon.Matching.Equal(want) {
			return nil, fmt.Errorf("E20 %s: canonical run diverged from LIC", c.name)
		}

		// The admission schedule is a pure function of the table, so
		// the greedy run's metric snapshot is the fingerprint.
		greedy, err := sameAtEveryWorkerCount("E20 "+c.name+" greedy", func(workers int) (lid.Result, any, error) {
			sink := mreg.New()
			res, err := lid.Run(sys, satisfaction.NewTableParallel(sys, workers), simnet.Event(opts),
				lid.RunOptions{Scheduler: lid.SchedulerSpec{Kind: lid.SchedGreedy}, Metrics: sink})
			if err == nil && !res.Matching.Equal(want) {
				err = fmt.Errorf("greedy run diverged from LIC")
			}
			return res, sink.Snapshot(), err
		})
		if err != nil {
			return nil, err
		}

		msgRed := reductionPct(canon.Stats.TotalSent(), greedy.Stats.TotalSent())
		roundRed := reductionPct(int(canon.Stats.FinalTime), int(greedy.Stats.FinalTime))
		if msgRed >= e20MinReduction || roundRed >= e20MinReduction {
			improved++
		}
		table.AddRowf(c.name, sys.Graph().NumNodes(), sys.MaxQuota(),
			canon.Stats.TotalSent(), greedy.Stats.TotalSent(), msgRed,
			canon.Stats.FinalTime, greedy.Stats.FinalTime, roundRed)
	}
	if improved < e20ImprovedFamilies {
		return nil, fmt.Errorf("E20: only %d families improved >= %.0f%% in messages or rounds, want >= %d — the greedy scheduler lost its payoff",
			improved, e20MinReduction, e20ImprovedFamilies)
	}
	return []*stats.Table{table}, nil
}

// reductionPct returns the percentage reduction from canon to greedy
// (positive = greedy cheaper), 0 for an empty baseline.
func reductionPct(canon, greedy int) float64 {
	if canon == 0 {
		return 0
	}
	return 100 * float64(canon-greedy) / float64(canon)
}
