package overlaymatch

// The benchmark harness: one testing.B target per experiment of
// DESIGN.md §3 (the paper has no tables/figures of its own — see
// EXPERIMENTS.md). Benchmarks report both wall-clock cost and, via
// b.ReportMetric, the headline quantity of the corresponding
// experiment (worst ratio, equality rate, messages per node, ...), so
// `go test -bench=. -benchmem` regenerates the quantitative story.

import (
	"testing"
	"time"

	"overlaymatch/internal/dlid"
	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/faults"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/robust"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
	"overlaymatch/internal/variants"
	"overlaymatch/internal/workload"
)

// benchSystem builds the standard benchmark workload, the oracle-sized
// G(n,p) instance of workload.OracleGNP.
func benchSystem(seed uint64, n int, p float64, bq int) *pref.System {
	s, err := workload.OracleGNP(seed, n, p, bq)
	if err != nil {
		panic(err)
	}
	return s
}

// BenchmarkLICRatio (E1 / Theorem 2): LIC vs exact optimum on
// oracle-sized instances; reports the worst observed ratio.
func BenchmarkLICRatio(b *testing.B) {
	worst := 1.0
	for i := 0; i < b.N; i++ {
		s := benchSystem(uint64(i), 10, 0.4, 2)
		if s.Graph().NumEdges() > matching.MaxOracleEdges || s.Graph().NumEdges() == 0 {
			continue
		}
		tbl := satisfaction.NewTable(s)
		licW := matching.LIC(s, tbl).Weight(s)
		_, optW, err := matching.MaxWeightBMatching(s, tbl)
		if err != nil {
			b.Fatal(err)
		}
		if optW > 0 && licW/optW < worst {
			worst = licW / optW
		}
	}
	b.ReportMetric(worst, "worst-ratio")
}

// BenchmarkLIDvsLIC (E2 / Lemmas 3–6): one full distributed run plus
// the equality check against LIC; reports the equality rate (must
// print 1).
func BenchmarkLIDvsLIC(b *testing.B) {
	s := benchSystem(42, 200, 0.04, 3)
	tbl := satisfaction.NewTable(s)
	want := matching.LIC(s, tbl)
	equal := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lid.RunEvent(s, tbl, simnet.Options{
			Seed: uint64(i), Latency: simnet.ExponentialLatency(5),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Matching.Equal(want) {
			equal++
		}
	}
	b.ReportMetric(float64(equal)/float64(b.N), "equal-rate")
}

// BenchmarkSatisfactionRatio (E3 / Theorem 3): LID satisfaction vs the
// exact satisfaction optimum; reports the worst observed ratio.
func BenchmarkSatisfactionRatio(b *testing.B) {
	worst := 1.0
	for i := 0; i < b.N; i++ {
		s := benchSystem(uint64(i)+1000, 9, 0.4, 2)
		if s.Graph().NumEdges() > 24 || s.Graph().NumEdges() == 0 {
			continue
		}
		tbl := satisfaction.NewTable(s)
		lidSat := matching.LIC(s, tbl).TotalSatisfaction(s)
		_, opt, err := matching.MaxSatisfactionBMatching(s)
		if err != nil {
			b.Fatal(err)
		}
		if opt > 0 && lidSat/opt < worst {
			worst = lidSat / opt
		}
	}
	b.ReportMetric(worst, "worst-ratio")
}

// BenchmarkStaticShare (E4 / Lemma 1): static/dynamic split over a full
// LIC matching; reports the minimum observed static share.
func BenchmarkStaticShare(b *testing.B) {
	s := benchSystem(7, 300, 0.03, 4)
	tbl := satisfaction.NewTable(s)
	m := matching.LIC(s, tbl)
	minShare := 1.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for node := 0; node < s.Graph().NumNodes(); node++ {
			st, dy := satisfaction.Split(s, node, m.Connections(node))
			if st+dy > 1e-12 {
				if sh := st / (st + dy); sh < minShare {
					minShare = sh
				}
			}
		}
	}
	b.ReportMetric(minShare, "min-share")
}

// BenchmarkLIDMessages (E5 / Lemma 5): full protocol run; reports mean
// messages per node.
func BenchmarkLIDMessages(b *testing.B) {
	s := benchSystem(11, 400, 0.02, 3)
	tbl := satisfaction.NewTable(s)
	var msgsPerNode float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lid.RunEvent(s, tbl, simnet.Options{
			Seed: uint64(i), Latency: simnet.ExponentialLatency(4),
		})
		if err != nil {
			b.Fatal(err)
		}
		msgsPerNode = float64(res.Stats.TotalSent()) / float64(s.Graph().NumNodes())
	}
	b.ReportMetric(msgsPerNode, "msgs/node")
}

// BenchmarkLIDRounds (E6): unit-latency run; reports causal rounds to
// quiescence.
func BenchmarkLIDRounds(b *testing.B) {
	s := benchSystem(13, 400, 0.02, 3)
	tbl := satisfaction.NewTable(s)
	var rounds float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := lid.RunEvent(s, tbl, simnet.Options{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		rounds = res.Stats.FinalTime
	}
	b.ReportMetric(rounds, "rounds")
}

// BenchmarkBaselines (E7): all four strategies on one workload;
// reports LID's satisfaction advantage over the random baseline.
func BenchmarkBaselines(b *testing.B) {
	s := benchSystem(17, 150, 0.06, 3)
	tbl := satisfaction.NewTable(s)
	var advantage float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lidSat := matching.LIC(s, tbl).TotalSatisfaction(s)
		randSat := matching.RandomMaximal(s, rng.New(uint64(i))).TotalSatisfaction(s)
		_ = matching.SelfishTopB(s)
		_ = matching.BestResponse(s, rng.New(uint64(i)+1), 2000)
		advantage = lidSat / randSat
	}
	b.ReportMetric(advantage, "lid/random-sat")
}

// BenchmarkChurn (E9 / §7): one churn event (leave or join) through the
// engine's preemptive repair, one epoch per event; reports mean edges
// examined per event.
func BenchmarkChurn(b *testing.B) {
	s := benchSystem(19, 200, 0.04, 3)
	e, err := dynamic.NewEngine(s, dynamic.EngineOptions{})
	if err != nil {
		b.Fatal(err)
	}
	o := e.Overlay()
	src := rng.New(99)
	examined := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := dynamic.TimedEvent{Kind: dynamic.UpdateJoin, Node: src.Intn(s.Graph().NumNodes())}
		if o.Alive(ev.Node) {
			if o.NumAlive() <= 2 {
				continue
			}
			ev.Kind = dynamic.UpdateLeave
		}
		rec, err := e.Step(ev)
		if err != nil {
			b.Fatal(err)
		}
		examined += rec.Stats.Examined
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(examined)/float64(b.N), "examined/event")
	}
}

// BenchmarkScaleLIC (E10): the centralized scan at n=2000, avg deg 8.
func BenchmarkScaleLIC(b *testing.B) {
	s := benchSystem(23, 2000, 8.0/1999.0, 3)
	tbl := satisfaction.NewTable(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = matching.LIC(s, tbl)
	}
}

// BenchmarkScaleLIDEvent (E10): the event-driven protocol at n=2000.
func BenchmarkScaleLIDEvent(b *testing.B) {
	s := benchSystem(29, 2000, 8.0/1999.0, 3)
	tbl := satisfaction.NewTable(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lid.RunEvent(s, tbl, simnet.Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScaleLIDGoroutines (E10): the concurrent runtime at n=500.
func BenchmarkScaleLIDGoroutines(b *testing.B) {
	s := benchSystem(31, 500, 8.0/499.0, 3)
	tbl := satisfaction.NewTable(s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lid.Run(s, tbl, transport.Memory(transport.ClusterConfig{Timeout: 60 * time.Second}), lid.RunOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLICLiteral: the literal Algorithm 2 with incremental
// locally-heaviest maintenance. Regression guard for the cursor-based
// pool: the pre-dense rescanning implementation was O(m²) and two
// orders of magnitude slower at this size.
func BenchmarkLICLiteral(b *testing.B) {
	s := benchSystem(59, 2000, 8.0/1999.0, 3)
	tbl := satisfaction.NewTable(s)
	want := matching.LIC(s, tbl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := matching.LICLiteral(s, tbl, rng.New(uint64(i)))
		if !m.Equal(want) {
			b.Fatal("LICLiteral diverged from LIC")
		}
	}
}

// BenchmarkWeightTable: eq.-9 weight computation for a whole graph.
func BenchmarkWeightTable(b *testing.B) {
	s := benchSystem(37, 2000, 8.0/1999.0, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = satisfaction.NewTable(s)
	}
}

// BenchmarkPublicAPI: the facade end to end at a moderate size.
func BenchmarkPublicAPI(b *testing.B) {
	edges := RandomEdges(5, 300, 0.04)
	for i := 0; i < b.N; i++ {
		net := MustBuild(Spec{
			NumNodes: 300,
			Edges:    edges,
			Quota:    func(int) int { return 3 },
			Metric:   func(x, y int) float64 { return float64((x*7 + y*13) % 101) },
		})
		if _, err := net.RunDistributed(RunOptions{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLossyLinks (E11): one LID run through the ack/retransmit
// substrate at 30% loss; reports the retransmission overhead.
func BenchmarkLossyLinks(b *testing.B) {
	s := benchSystem(41, 100, 0.08, 2)
	tbl := satisfaction.NewTable(s)
	var overhead float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes := lid.NewNodes(s, tbl)
		eps := reliable.WrapConfig(lid.Handlers(nodes), reliable.Config{RTO: 30})
		runner := simnet.NewRunner(s.Graph().NumNodes(), simnet.Options{
			Seed:    uint64(i),
			Latency: simnet.ExponentialLatency(3),
			Policy:  faults.NewInjector(faults.Spec{Drop: 0.3}, uint64(i)^0x5fa715ca11edc0de),
		})
		stats, err := runner.Run(reliable.Handlers(eps))
		if err != nil {
			b.Fatal(err)
		}
		overhead = float64(reliable.TotalRetransmits(eps)) / float64(stats.TotalSent())
	}
	b.ReportMetric(overhead, "retransmit-frac")
}

// BenchmarkAdversaries (E12): tolerant LID with 20% crashed peers;
// reports the honest-to-baseline satisfaction ratio.
func BenchmarkAdversaries(b *testing.B) {
	s := benchSystem(43, 100, 0.08, 2)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := robust.Scenario{
			System:      s,
			Adversaries: robust.FractionAdversaries(100, 0.2, robust.AdvCrash),
			Timeout:     60,
			Options:     simnet.Options{Seed: uint64(i), Latency: simnet.UniformLatency(1, 3)},
		}
		out, err := sc.Run()
		if err != nil {
			b.Fatal(err)
		}
		if out.BaselineSatisfaction > 0 {
			ratio = out.HonestSatisfaction / out.BaselineSatisfaction
		}
	}
	b.ReportMetric(ratio, "honest-sat-ratio")
}

// BenchmarkVariants (E13): coverage-first plus the local-search pass;
// reports the weight gain of the improvement pass over LIC.
func BenchmarkVariants(b *testing.B) {
	s := benchSystem(47, 200, 0.04, 3)
	tbl := satisfaction.NewTable(s)
	var gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = variants.CoverageFirst(s, tbl)
		m := matching.LIC(s, tbl)
		before := m.Weight(s)
		variants.Improve(s, tbl, m)
		gain = m.Weight(s)/before - 1
	}
	b.ReportMetric(gain, "improve-gain")
}

// BenchmarkMaintenance (E14): one churn event through the distributed
// dlid maintenance protocol; reports messages per event.
func BenchmarkMaintenance(b *testing.B) {
	s := benchSystem(53, 150, 0.06, 3)
	tbl := satisfaction.NewTable(s)
	schedule := dlid.Schedule(s, rng.New(4), 50, 60, 0.5, 50)
	var perEvent float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dlid.Run(s, tbl, schedule, simnet.Options{
			Seed:    uint64(i),
			Latency: simnet.ExponentialLatency(0.5),
		})
		if err != nil {
			b.Fatal(err)
		}
		perEvent = float64(res.Stats.TotalSent()) / float64(len(schedule))
	}
	b.ReportMetric(perEvent, "msgs/event")
}
