package tournament

import (
	"overlaymatch/internal/lid"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// LID is the paper's Algorithm 1 as a tournament contender: a thin
// adapter over lid.Run, so a bracket cell is the very same execution a
// standalone lid.RunEvent with the same seed performs — the
// equivalence the tournament tests pin down to the message counts. A
// faulted cell runs the same path with the injector as the link policy
// and, when asked, the reliable transport stacked (a crash window
// drops every frame in flight; bare LID would wedge on the loss).
type LID struct{}

// Name implements Algorithm.
func (LID) Name() string { return "lid" }

// Run implements Algorithm.
func (LID) Run(s *pref.System, tbl *satisfaction.Table, opts Options) (Outcome, error) {
	res, err := lid.Run(s, tbl, simnet.Event(simnet.Options{Seed: opts.Seed, Policy: opts.policy()}),
		lid.RunOptions{Stack: opts.layers(), ProbeInterval: opts.interval(), Metrics: opts.Registry})
	return Outcome{Matching: res.Matching, Stats: res.Stats, Prober: res.Prober}, err
}
