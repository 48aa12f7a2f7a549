package experiments

import (
	"fmt"

	"overlaymatch/internal/faults"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/workload"
)

// e15Intensity is one rung of the fault-intensity ladder.
type e15Intensity struct {
	name string
	spec faults.Spec
}

func e15Ladder() []e15Intensity {
	return []e15Intensity{
		{"off", faults.Spec{}},
		{"light", faults.Spec{Drop: 0.02, Dup: 0.01, Corrupt: 0.01, Delay: 0.05, DelayScale: 4}},
		{"medium", faults.Spec{Drop: 0.08, Dup: 0.05, Corrupt: 0.03, Delay: 0.1, DelayScale: 6}},
		{"heavy", faults.Spec{Drop: 0.2, Dup: 0.1, Corrupt: 0.08, Delay: 0.2, DelayScale: 8}},
	}
}

// E15FaultSweep: LID through the reliable substrate under the faults
// adversary at increasing intensity (package faults: independent
// drop/duplicate/corrupt plus Pareto delay tails, all per-message).
// Since reliable restores the paper's link model, the outcome must
// equal LIC at every intensity — the table quantifies what the
// adversary costs in retransmissions and convergence-time inflation
// (virtual final time relative to the fault-free row of the same
// topology).
func E15FaultSweep(cfg Config) ([]*stats.Table, error) {
	t := stats.NewTable("E15: LID+reliable under the fault-injection adversary",
		"intensity", "topology", "runs", "equal to LIC", "injections",
		"frames sent", "retransmits", "corrupt discarded", "rounds", "inflation")
	n := cfg.pick(30, 80)
	runs := cfg.pick(3, 12)
	baseRounds := map[string]float64{} // topology -> fault-free mean rounds
	for _, step := range e15Ladder() {
		for _, topo := range suiteTopologies {
			var (
				equal, injections, frames, retrans, corrupted int
				rounds                                        float64
			)
			for r := 0; r < runs; r++ {
				sys, err := workload.Synthetic{Topology: topo, Metric: "random", N: n, B: 2, Seed: cfg.Seed ^ uint64(15*n) ^ uint64(r)*7919}.Build()
				if err != nil {
					return nil, err
				}
				tbl := satisfaction.NewTable(sys)
				var policy simnet.LinkPolicy
				var inj *faults.Injector
				if !step.spec.IsZero() {
					inj = faults.NewInjector(step.spec, cfg.Seed+uint64(r)*104729)
					policy = inj
				}
				res, err := lid.Run(sys, tbl, simnet.Event(simnet.Options{
					Seed:    cfg.Seed + uint64(r)*131 + 15,
					Latency: simnet.ExponentialLatency(3),
					Policy:  policy,
				}), lid.RunOptions{Stack: stack.Spec{Reliable: reliable.Config{RTO: 30}}, Metrics: cfg.Metrics})
				if err != nil {
					return nil, fmt.Errorf("E15 %s/%s run %d: %w", step.name, topo, r, err)
				}
				if res.Matching.Equal(matching.LIC(sys, tbl)) {
					equal++
				}
				eps, st := res.Layers.Endpoints, res.Stats
				if inj != nil {
					injections += len(inj.Events())
				}
				frames += st.TotalSent()
				retrans += reliable.TotalRetransmits(eps)
				corrupted += reliable.TotalCorrupted(eps)
				rounds += st.FinalTime
			}
			mean := rounds / float64(runs)
			if step.name == "off" {
				baseRounds[topo] = mean
			}
			inflation := 0.0
			if base := baseRounds[topo]; base > 0 {
				inflation = mean / base
			}
			t.AddRowf(step.name, topo, runs, equal, injections,
				frames/runs, retrans/runs, corrupted/runs, mean, inflation)
			if equal != runs {
				return nil, fmt.Errorf("E15: %s/%s broke the LIC equivalence (%d/%d) — delivery restored by reliable must preserve Lemmas 3-6",
					step.name, topo, equal, runs)
			}
		}
	}
	return []*stats.Table{t}, nil
}
