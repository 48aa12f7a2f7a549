package tournament

import (
	"overlaymatch/internal/graph"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// LID is the paper's Algorithm 1 as a tournament contender: a thin
// adapter over lid.RunEventProbed, so a bracket cell is the very same
// execution a standalone lid.RunEvent with the same seed performs —
// the equivalence the tournament tests pin down to the message counts.
type LID struct{}

// Name implements Algorithm.
func (LID) Name() string { return "lid" }

// Run implements Algorithm.
func (LID) Run(s *pref.System, tbl *satisfaction.Table, opts Options) (Outcome, error) {
	if !opts.faulted() {
		res, prober, err := lid.RunEventProbed(s, tbl, simnet.Options{Seed: opts.Seed}, opts.interval(), opts.Registry)
		return Outcome{Matching: res.Matching, Stats: res.Stats, Prober: prober}, err
	}
	// Faulted cell: the RunEventProbed wiring laid out by hand so the
	// injector slots in as the link policy and the handlers can be
	// wrapped in the reliable transport (a crash window drops every
	// frame in flight; bare LID would wedge on the loss).
	g := s.Graph()
	nodes := lid.NewNodes(s, tbl)
	prober := obs.NewProber(opts.Registry, opts.interval(), g.NumEdges(), opts.OptWeight,
		obs.StabilitySampler(s, tbl, func(u, v graph.NodeID) bool { return nodes[u].LockedWith(v) }))
	runner := simnet.NewRunner(g.NumNodes(), simnet.Options{
		Seed:   opts.Seed,
		Policy: opts.policy(),
		Prober: prober,
	})
	stats, err := runner.Run(opts.wrapReliable(lid.Handlers(nodes)))
	if err != nil {
		return Outcome{Stats: stats, Prober: prober}, err
	}
	prober.PublishSummary(opts.Registry, nil)
	m, err := lid.BuildMatching(nodes)
	return Outcome{Matching: m, Stats: stats, Prober: prober}, err
}
