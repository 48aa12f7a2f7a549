package lid

import (
	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
)

// Result bundles the outcome of one LID execution: the run recipe's
// result (see stack.Result) and its message breakdown.
type Result struct {
	stack.Result
	// PropMessages and RejMessages break down the message count.
	PropMessages int
	RejMessages  int
}

// RunOptions configures one LID run beyond its runtime.
type RunOptions struct {
	// Stack names the layers wrapped around the LID nodes.
	Stack stack.Spec
	// Scheduler picks the admission order. A greedy spec installs the
	// heaviest-frontier GreedyAdmitter (see scheduler.go) as the run's
	// admitter; the matching is the same LIC either way, the scheduler
	// only changes message and round counts.
	Scheduler SchedulerSpec
	// ProbeInterval, if positive, attaches the stability prober over
	// the nodes' locks (see stack.Options.ProbeInterval).
	ProbeInterval float64
	// Metrics is the run's one sink (see stack.Options.Metrics). After
	// a successful run it also receives the lid_* protocol counters.
	Metrics *metrics.Registry
}

// RunEvent executes LID on the deterministic event simulator with the
// given options and no run hook. The returned error is non-nil only on
// protocol failure (non-termination or asymmetric locks), which Lemma
// 5 and the mutual-PROP argument exclude — tests treat an error as a
// bug.
func RunEvent(s *pref.System, tbl *satisfaction.Table, opts simnet.Options) (Result, error) {
	return Run(s, tbl, simnet.Event(opts), RunOptions{})
}

// Run executes LID through the run recipe (stack.Run) on the Transport
// rt builds: its nodes, its greedy admitter when the options ask for
// one, and, after a successful run, its lid_* counters.
func Run(s *pref.System, tbl *satisfaction.Table, rt simnet.Runtime, o RunOptions) (Result, error) {
	nodes := NewNodes(s, tbl)
	p := stack.Protocol{
		Handlers: Handlers(nodes),
		Holds:    func(u, v graph.NodeID) bool { return nodes[u].LockedWith(v) },
		Assemble: func() (*matching.Matching, error) { return BuildMatching(nodes) },
	}
	if o.Scheduler.Greedy() {
		// The admitter watches the LID state machines directly, so the
		// stacked layers stay transparent to it.
		p.Admitter = NewGreedyAdmitter(s, tbl, nodes, o.Scheduler)
	}
	r, err := stack.Run(s, tbl, p, rt, stack.Options{Stack: o.Stack, ProbeInterval: o.ProbeInterval, Metrics: o.Metrics})
	res := Result{Result: r, PropMessages: r.Stats.SentByKind["PROP"], RejMessages: r.Stats.SentByKind["REJ"]}
	if err != nil {
		return res, err
	}
	if sink := o.Metrics; sink != nil {
		sink.Counter("lid_runs_total", "completed LID executions").Inc()
		sink.Counter("lid_locked_edges_total", "connections locked across runs").Add(int64(res.Matching.Size()))
		sink.Counter("lid_prop_total", "PROP messages sent").Add(int64(res.PropMessages))
		sink.Counter("lid_rej_total", "REJ messages sent").Add(int64(res.RejMessages))
	}
	return res, nil
}
