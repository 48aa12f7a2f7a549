package experiments

import (
	"fmt"

	"overlaymatch/internal/matching"
	"overlaymatch/internal/par"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/workload"
)

// E1LICWeightRatio (Theorem 2): measure LIC(=LID) weight against the
// exact maximum-weight many-to-many matching on oracle-sized random
// graphs. The proven floor is ½; the table reports observed min and
// mean ratios per (n, p, b) cell — the shape to verify is "min ≥ 0.5,
// typically far above".
func E1LICWeightRatio(cfg Config) ([]*stats.Table, error) {
	t := stats.NewTable("E1 (Theorem 2): LIC/OPT weight ratio, exact oracle",
		"n", "p", "b", "instances", "min ratio", "mean ratio", "bound")
	seeds := cfg.pick(8, 120)
	ns := []int{8, 10, 12}
	if cfg.Quick {
		ns = []int{8, 10}
	}
	for _, n := range ns {
		for _, p := range []float64{0.3, 0.5} {
			for _, b := range []int{1, 2, 3} {
				// The exact-oracle comparisons are independent and
				// uneven in cost (branch and bound), so they sweep on
				// par.Map's dynamic queue; results come back in index
				// order for any worker count (-1 marks a skipped
				// instance).
				n, p, b := n, p, b
				vals, err := par.Map(par.Workers(cfg.Workers), seeds, func(s int) (float64, error) {
					seed := cfg.Seed ^ uint64(s)*0x9e37 + uint64(n*1000) + uint64(b)
					sys, err := workload.OracleGNP(seed, n, p, b)
					if err != nil {
						return -1, err
					}
					if sys.Graph().NumEdges() > matching.MaxOracleEdges || sys.Graph().NumEdges() == 0 {
						return -1, nil
					}
					tbl := satisfaction.NewTable(sys)
					licW := matching.LIC(sys, tbl).Weight(sys)
					_, optW, err := matching.MaxWeightBMatching(sys, tbl)
					if err != nil {
						return -1, err
					}
					if optW == 0 {
						return -1, nil
					}
					return licW / optW, nil
				})
				if err != nil {
					return nil, err
				}
				var ratios []float64
				for _, v := range vals {
					if v >= 0 {
						ratios = append(ratios, v)
					}
				}
				if len(ratios) == 0 {
					continue
				}
				sum := stats.Summarize(ratios)
				t.AddRowf(n, p, b, sum.N, sum.Min, sum.Mean, 0.5)
				if sum.Min < 0.5-1e-9 {
					return nil, fmt.Errorf("E1: observed ratio %v under the proven bound", sum.Min)
				}
			}
		}
	}
	return []*stats.Table{t}, nil
}

// E3SatisfactionRatio (Theorem 3): LID total satisfaction against the
// exact maximizing-satisfaction optimum; the floor is ¼(1+1/bmax).
func E3SatisfactionRatio(cfg Config) ([]*stats.Table, error) {
	t := stats.NewTable("E3 (Theorem 3): LID satisfaction / OPT satisfaction, exact oracle",
		"n", "b", "instances", "min ratio", "mean ratio", "bound ¼(1+1/b)")
	seeds := cfg.pick(6, 80)
	ns := []int{8, 9, 10}
	if cfg.Quick {
		ns = []int{8}
	}
	for _, n := range ns {
		for _, b := range []int{1, 2, 3, 4} {
			n, b := n, b
			vals, err := par.Map(par.Workers(cfg.Workers), seeds, func(s int) (float64, error) {
				seed := cfg.Seed ^ uint64(s)*0x85eb + uint64(n*77+b)
				sys, err := workload.OracleGNP(seed, n, 0.4, b)
				if err != nil {
					return -1, err
				}
				if sys.Graph().NumEdges() > 24 || sys.Graph().NumEdges() == 0 {
					return -1, nil
				}
				tbl := satisfaction.NewTable(sys)
				lidSat := matching.LIC(sys, tbl).TotalSatisfaction(sys) // ≡ LID by E2
				_, opt, err := matching.MaxSatisfactionBMatching(sys)
				if err != nil {
					return -1, err
				}
				if opt == 0 {
					return -1, nil
				}
				return lidSat / opt, nil
			})
			if err != nil {
				return nil, err
			}
			var ratios []float64
			for _, v := range vals {
				if v >= 0 {
					ratios = append(ratios, v)
				}
			}
			if len(ratios) == 0 {
				continue
			}
			sum := stats.Summarize(ratios)
			bound := satisfaction.Theorem3Bound(b)
			t.AddRowf(n, b, sum.N, sum.Min, sum.Mean, bound)
			if sum.Min < bound-1e-9 {
				return nil, fmt.Errorf("E3: observed ratio %v under the proven bound %v", sum.Min, bound)
			}
		}
	}
	return []*stats.Table{t}, nil
}

// E4StaticShare (Lemma 1): across full-size workloads, the per-node
// static share Sis/Si must stay above ½(1+1/bi); the adversarial
// bottom-of-list instance attains the bound exactly (second table).
func E4StaticShare(cfg Config) ([]*stats.Table, error) {
	sweep := stats.NewTable("E4a (Lemma 1): observed static share of satisfaction vs bound",
		"topology", "b", "nodes", "min share", "mean share", "bound ½(1+1/b)")
	n := cfg.pick(60, 300)
	for _, topo := range suiteTopologies { // gnp, geometric, ba
		for _, b := range []int{1, 2, 4, 8} {
			sys, err := workload.Synthetic{Topology: topo, Metric: "random", N: n, B: b, Seed: cfg.Seed + uint64(b)}.Build()
			if err != nil {
				return nil, err
			}
			tbl := satisfaction.NewTable(sys)
			m := matching.LIC(sys, tbl)
			var shares []float64
			for i := 0; i < sys.Graph().NumNodes(); i++ {
				static, dynamic := satisfaction.Split(sys, i, m.Connections(i))
				if static+dynamic <= 1e-12 {
					continue
				}
				shares = append(shares, static/(static+dynamic))
			}
			if len(shares) == 0 {
				continue
			}
			sum := stats.Summarize(shares)
			bound := satisfaction.Lemma1Bound(b)
			sweep.AddRowf(topo, b, sum.N, sum.Min, sum.Mean, bound)
			if sum.Min < bound-1e-9 {
				return nil, fmt.Errorf("E4: share %v under bound %v", sum.Min, bound)
			}
		}
	}

	tight := stats.NewTable("E4b (Lemma 1): adversarial bottom-of-list instance attains the bound",
		"L", "b", "static share", "bound ½(1+1/b)", "gap")
	for _, tc := range []struct{ l, b int }{{6, 2}, {10, 5}, {16, 4}, {20, 10}} {
		share, bound := lemma1WorstCase(tc.l, tc.b)
		tight.AddRowf(tc.l, tc.b, share, bound, share-bound)
	}
	return []*stats.Table{sweep, tight}, nil
}

// lemma1WorstCase reproduces the proof's worst case analytically: a
// node with list length l and quota b connected to the bottom b
// entries. Returns (share, bound).
func lemma1WorstCase(l, b int) (float64, float64) {
	static := (float64(b) + 1) / (2 * float64(l))
	dynamic := (float64(b) - 1) / (2 * float64(l))
	return static / (static + dynamic), satisfaction.Lemma1Bound(b)
}

// E8Identities quantifies the §3 identities on large random workloads:
// eq. 1 must equal Σ eq. 4, and Split must reassemble Value; the table
// reports the maximum absolute deviation seen (pure float noise).
func E8Identities(cfg Config) ([]*stats.Table, error) {
	t := stats.NewTable("E8 (§3, Fig. 1): satisfaction identity residuals",
		"topology", "nodes", "max |eq1 - Σeq4|", "max |eq1 - (static+dynamic)|")
	n := cfg.pick(50, 200)
	for _, topo := range suiteTopologies {
		sys, err := workload.Synthetic{Topology: topo, Metric: "random", N: n, B: 3, Seed: cfg.Seed + 7}.Build()
		if err != nil {
			return nil, err
		}
		tbl := satisfaction.NewTable(sys)
		m := matching.LIC(sys, tbl)
		var maxSum, maxSplit float64
		for i := 0; i < sys.Graph().NumNodes(); i++ {
			conns := m.Connections(i)
			v := satisfaction.Value(sys, i, conns)
			var sum float64
			for q, j := range satisfaction.ConnectionList(sys, i, conns) {
				sum += satisfaction.Delta(sys, i, j, q)
			}
			if d := abs(v - sum); d > maxSum {
				maxSum = d
			}
			st, dy := satisfaction.Split(sys, i, conns)
			if d := abs(v - (st + dy)); d > maxSplit {
				maxSplit = d
			}
		}
		t.AddRowf(topo, n, maxSum, maxSplit)
		if maxSum > 1e-9 || maxSplit > 1e-9 {
			return nil, fmt.Errorf("E8: identity residual too large (%v, %v)", maxSum, maxSplit)
		}
	}
	return []*stats.Table{t}, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
