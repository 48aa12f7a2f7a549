package experiments

import (
	"fmt"

	"overlaymatch/internal/dlid"
	"overlaymatch/internal/dynamic"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stats"
	"overlaymatch/internal/workload"
)

// E14Maintenance (§7, the distributed answer): run the dlid
// maintenance protocol through churn schedules and compare its repair
// quality and message cost against (a) a fresh LIC recomputation of
// the live subgraph and (b) the centralized completion repair (the
// dynamic Engine under CompleteOnly, one epoch per event) on the same
// event sequence. The shape to verify: the distributed protocol
// matches the centralized completion-repair quality band (both are
// greedy completions) at a per-event message cost of a few times the
// affected degree, with every run quiescing and passing the structural
// invariants (Run enforces them).
func E14Maintenance(cfg Config) ([]*stats.Table, error) {
	t := stats.NewTable("E14 (§7): distributed churn maintenance (dlid) vs fresh LIC and centralized repair",
		"topology", "events", "msgs/event", "props/event", "quality dlid", "quality centralized", "final alive")
	n := cfg.pick(30, 120)
	events := cfg.pick(15, 100)
	for _, topo := range suiteTopologies {
		sys, err := workload.Synthetic{Topology: topo, Metric: "random", N: n, B: 3, Seed: cfg.Seed ^ 0x14e}.Build()
		if err != nil {
			return nil, err
		}
		tbl := satisfaction.NewTable(sys)
		schedule := dlid.Schedule(sys, rng.New(cfg.Seed+3), events, 60, 0.5, n/3)
		res, err := dlid.Run(sys, tbl, schedule, simnet.Options{
			Seed:    cfg.Seed,
			Latency: simnet.ExponentialLatency(0.5),
			Metrics: cfg.Metrics,
		})
		if err != nil {
			return nil, fmt.Errorf("E14 %s: %w", topo, err)
		}
		fresh, err := dlid.LiveLICWeight(sys, res.Nodes)
		if err != nil {
			return nil, err
		}
		quality := 1.0
		if fresh > 0 {
			quality = res.Live.Weight(sys) / fresh
		}

		// Centralized completion repair on the same event sequence.
		e, err := dynamic.NewEngine(sys, dynamic.EngineOptions{CompleteOnly: true})
		if err != nil {
			return nil, err
		}
		for _, ev := range schedule {
			if _, err := e.Step(timedEvent(ev)); err != nil {
				return nil, err
			}
		}
		centralQ, err := e.Overlay().QualityRatio()
		if err != nil {
			return nil, err
		}

		alive := 0
		for _, nd := range res.Nodes {
			if nd.Alive() {
				alive++
			}
		}
		nEvents := len(schedule)
		t.AddRowf(topo, nEvents,
			float64(res.Stats.TotalSent())/float64(nEvents),
			float64(res.Proposals)/float64(nEvents),
			quality, centralQ, alive)
		if quality < 0.5 {
			return nil, fmt.Errorf("E14 %s: distributed repair quality %v under the greedy floor", topo, quality)
		}
	}
	return []*stats.Table{t}, nil
}
