package tournament

import (
	"overlaymatch/internal/lid"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/stack"
)

// LID is the paper's Algorithm 1 as a tournament contender: a thin
// adapter over lid.Run, so a bracket cell is the very same execution a
// standalone lid.RunEvent with the same seed performs — the
// equivalence the tournament tests pin down to the message counts. A
// faulted cell runs the same path with the injector as the link policy
// and the options' layers stacked (a crash window drops every frame in
// flight; bare LID would wedge on the loss).
type LID struct{}

// Name implements Algorithm.
func (LID) Name() string { return "lid" }

// Run implements Algorithm.
func (LID) Run(s *pref.System, tbl *satisfaction.Table, opts Options) (stack.Result, error) {
	res, err := lid.Run(s, tbl, opts.runtime(), lid.RunOptions{Stack: opts.Stack, ProbeInterval: 1})
	return res.Result, err
}
