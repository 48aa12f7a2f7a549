package experiments

import (
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/workload"
)

// E7Baselines: who wins, and by how much. For each topology × metric
// the table compares mean per-node satisfaction, total weight, matched
// quota fraction, and Jain fairness of:
//
//	lid       — the paper's algorithm (LIC ≡ LID edge set)
//	random    — preference-oblivious maximal b-matching
//	selfish   — uncoordinated mutual top-b proposals
//	bestresp  — blocking-pair dynamics (prior work; converges only on
//	            acyclic systems, capped otherwise)
//
// Expected shape: lid ≥ random and lid ≥ selfish everywhere in total
// satisfaction; bestresp competitive on acyclic metrics but failing to
// converge on cyclic ones (the "conv" column).
func E7Baselines(cfg Config) ([]*stats.Table, error) {
	t := stats.NewTable("E7: strategy comparison (mean node satisfaction / total weight / fill / fairness)",
		"topology", "metric", "acyclic", "strategy", "mean sat", "total weight", "fill", "fairness", "conv")
	n := cfg.pick(40, 150)
	b := 3
	for _, topo := range suiteTopologies {
		for _, metric := range []string{"random", "symmetric", "distance", "resource", "transactions"} {
			sys, err := workload.Synthetic{Topology: topo, Metric: metric, N: n, B: b, Seed: cfg.Seed ^ 0x77}.Build()
			if err != nil {
				return nil, err
			}
			acyclic := pref.IsAcyclic(sys)
			tbl := satisfaction.NewTable(sys)

			type entry struct {
				name string
				m    *matching.Matching
				conv string
			}
			var entries []entry
			entries = append(entries, entry{"lid", matching.LIC(sys, tbl), "yes"})
			entries = append(entries, entry{"random", matching.RandomMaximal(sys, rng.New(cfg.Seed+1)), "yes"})
			entries = append(entries, entry{"selfish", matching.SelfishTopB(sys), "yes"})
			br := matching.BestResponse(sys, rng.New(cfg.Seed+2), 20*n*b)
			conv := "yes"
			if !br.Converged {
				conv = "NO"
			}
			entries = append(entries, entry{"bestresp", br.M, conv})

			for _, e := range entries {
				per := e.m.PerNodeSatisfaction(sys)
				fill := quotaFill(sys, e.m)
				t.AddRowf(topo, metric, boolStr(acyclic), e.name,
					stats.Mean(per), e.m.Weight(sys), fill, stats.JainFairness(per), e.conv)
			}
		}
	}
	return []*stats.Table{t}, nil
}

// quotaFill returns Σci / Σbi — the fraction of wanted connections
// actually established.
func quotaFill(s *pref.System, m *matching.Matching) float64 {
	var used, want int
	for i := 0; i < s.Graph().NumNodes(); i++ {
		used += m.DegreeOf(i)
		want += s.Quota(i)
	}
	if want == 0 {
		return 1
	}
	return float64(used) / float64(want)
}

func boolStr(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
