package experiments

import (
	"fmt"
	"time"

	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/transport"
	"overlaymatch/internal/workload"
)

// E2LIDEquivalence (Lemmas 3–6): LID must lock exactly the LIC edge set
// on every workload under (a) many random asynchronous interleavings of
// the event simulator and (b) the real goroutine runtime. The table
// reports equality rates; anything under 100% is a reproduction
// failure and returns an error.
func E2LIDEquivalence(cfg Config) ([]*stats.Table, error) {
	t := stats.NewTable("E2 (Lemmas 3-6): LID == LIC equality rate",
		"topology", "metric", "n", "event runs", "goroutine runs", "equal", "rate")
	ns := []int{12, 40, 120}
	if cfg.Quick {
		ns = []int{12, 30}
	}
	eventRuns := cfg.pick(5, 40)
	goRuns := cfg.pick(2, 8)
	for _, topo := range suiteTopologies {
		for _, metric := range []string{"random", "symmetric"} {
			for _, n := range ns {
				sys, err := workload.Synthetic{Topology: topo, Metric: metric, N: n, B: 3, Seed: cfg.Seed ^ uint64(n)}.Build()
				if err != nil {
					return nil, err
				}
				tbl := satisfaction.NewTable(sys)
				want := matching.LIC(sys, tbl)
				equal, total := 0, 0
				for r := 0; r < eventRuns; r++ {
					res, err := lid.RunEvent(sys, tbl, simnet.Options{
						Seed:    cfg.Seed + uint64(r)*131,
						Latency: simnet.ExponentialLatency(6),
					})
					if err != nil {
						return nil, fmt.Errorf("E2 event run: %w", err)
					}
					total++
					if res.Matching.Equal(want) {
						equal++
					}
				}
				for r := 0; r < goRuns; r++ {
					res, err := lid.Run(sys, tbl, transport.Memory(transport.ClusterConfig{Timeout: 30 * time.Second}),
						lid.RunOptions{})
					if err != nil {
						return nil, fmt.Errorf("E2 goroutine run: %w", err)
					}
					total++
					if res.Matching.Equal(want) {
						equal++
					}
				}
				rate := float64(equal) / float64(total)
				t.AddRowf(topo, metric, n, eventRuns, goRuns, equal, rate)
				if equal != total {
					return nil, fmt.Errorf("E2: %s/%s n=%d equality rate %v < 1", topo, metric, n, rate)
				}
			}
		}
	}
	return []*stats.Table{t}, nil
}

// E5MessageComplexity (Lemma 5 + §5): messages per node as n scales
// (figure series 1), as quota b scales (series 2), and as density
// scales (series 3). Every run must terminate; per-node messages are
// bounded by degree (one message per directed pair), so the shape to
// verify is "mean msgs/node tracks average degree, independent of n".
func E5MessageComplexity(cfg Config) ([]*stats.Table, error) {
	scale := stats.NewTable("E5a (Lemma 5): messages vs network size (b=3, avg deg ~8)",
		"topology", "n", "edges", "total msgs", "msgs/node mean", "msgs/node max", "PROP", "REJ")
	ns := []int{50, 100, 200, 400, 800}
	if cfg.Quick {
		ns = []int{50, 100}
	}
	for _, topo := range suiteTopologies {
		for _, n := range ns {
			sys, err := workload.Synthetic{Topology: topo, Metric: "random", N: n, B: 3, Seed: cfg.Seed ^ uint64(3*n)}.Build()
			if err != nil {
				return nil, err
			}
			res, err := lid.Run(sys, satisfaction.NewTable(sys), simnet.Event(simnet.Options{
				Seed:    cfg.Seed + uint64(n),
				Latency: simnet.ExponentialLatency(4),
			}), lid.RunOptions{Metrics: cfg.Metrics})
			if err != nil {
				return nil, err
			}
			perNode := make([]float64, len(res.Stats.SentByNode))
			for i, c := range res.Stats.SentByNode {
				perNode[i] = float64(c)
			}
			sum := stats.Summarize(perNode)
			scale.AddRowf(topo, n, sys.Graph().NumEdges(), res.Stats.TotalSent(),
				sum.Mean, sum.Max, res.PropMessages, res.RejMessages)
			if res.Stats.TotalSent() > 2*sys.Graph().NumEdges() {
				return nil, fmt.Errorf("E5: message count exceeded 2m")
			}
		}
	}

	quota := stats.NewTable("E5b: messages vs quota b (gnp, n fixed)",
		"b", "total msgs", "msgs/node mean", "PROP", "REJ", "locked edges")
	n := cfg.pick(100, 400)
	for _, b := range []int{1, 2, 4, 8, 16} {
		sys, err := workload.Synthetic{Topology: "gnp", Metric: "random", N: n, B: b, Seed: cfg.Seed ^ 0xb0b ^ uint64(b)}.Build()
		if err != nil {
			return nil, err
		}
		res, err := lid.Run(sys, satisfaction.NewTable(sys), simnet.Event(simnet.Options{
			Seed:    cfg.Seed + uint64(b),
			Latency: simnet.ExponentialLatency(4),
		}), lid.RunOptions{Metrics: cfg.Metrics})
		if err != nil {
			return nil, err
		}
		quota.AddRowf(b, res.Stats.TotalSent(),
			float64(res.Stats.TotalSent())/float64(n), res.PropMessages, res.RejMessages,
			res.Matching.Size())
	}

	density := stats.NewTable("E5c: messages vs density (gnp, n fixed, b=3)",
		"avg degree", "edges", "total msgs", "msgs/node mean", "msgs per edge")
	for _, deg := range []float64{4, 8, 16, 32} {
		sys, err := workload.OracleGNP(cfg.Seed^0xdd, n, min(deg/float64(n-1), 1), 3)
		if err != nil {
			return nil, err
		}
		res, err := lid.Run(sys, satisfaction.NewTable(sys), simnet.Event(simnet.Options{
			Seed:    cfg.Seed + uint64(deg),
			Latency: simnet.ExponentialLatency(4),
		}), lid.RunOptions{Metrics: cfg.Metrics})
		if err != nil {
			return nil, err
		}
		m := sys.Graph().NumEdges()
		density.AddRowf(deg, m, res.Stats.TotalSent(),
			float64(res.Stats.TotalSent())/float64(n), float64(res.Stats.TotalSent())/float64(m))
	}
	return []*stats.Table{scale, quota, density}, nil
}

// E6ConvergenceRounds: with unit latency the final virtual time is the
// longest causal message chain — the round count to global quiescence.
// Series: rounds vs n per topology, and rounds vs b.
func E6ConvergenceRounds(cfg Config) ([]*stats.Table, error) {
	bySize := stats.NewTable("E6a: convergence rounds vs network size (unit latency, b=3)",
		"topology", "n", "rounds", "deliveries")
	ns := []int{50, 100, 200, 400, 800}
	if cfg.Quick {
		ns = []int{50, 100}
	}
	for _, topo := range []string{"gnp", "geometric", "ba", "ring"} { // ring: the adversarial chain case
		for _, n := range ns {
			sys, err := workload.Synthetic{Topology: topo, Metric: "random", N: n, B: 3, Seed: cfg.Seed ^ uint64(5*n)}.Build()
			if err != nil {
				return nil, err
			}
			res, err := lid.Run(sys, satisfaction.NewTable(sys), simnet.Event(simnet.Options{Seed: cfg.Seed}),
				lid.RunOptions{Metrics: cfg.Metrics})
			if err != nil {
				return nil, err
			}
			bySize.AddRowf(topo, n, res.Stats.FinalTime, res.Stats.Deliveries)
		}
	}

	byQuota := stats.NewTable("E6b: convergence rounds vs quota (gnp, unit latency)",
		"b", "rounds", "deliveries")
	n := cfg.pick(100, 400)
	for _, b := range []int{1, 2, 4, 8} {
		sys, err := workload.Synthetic{Topology: "gnp", Metric: "random", N: n, B: b, Seed: cfg.Seed ^ 0xe6 ^ uint64(b)}.Build()
		if err != nil {
			return nil, err
		}
		res, err := lid.Run(sys, satisfaction.NewTable(sys), simnet.Event(simnet.Options{Seed: cfg.Seed}),
			lid.RunOptions{Metrics: cfg.Metrics})
		if err != nil {
			return nil, err
		}
		byQuota.AddRowf(b, res.Stats.FinalTime, res.Stats.Deliveries)
	}
	return []*stats.Table{bySize, byQuota}, nil
}
