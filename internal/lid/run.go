package lid

import (
	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
)

// Result bundles the outcome of one LID execution.
type Result struct {
	Matching *matching.Matching
	Stats    simnet.Stats
	// PropMessages and RejMessages break down the message count.
	PropMessages int
	RejMessages  int
	// Layers are the stacked layers' instances (see stack.Layers).
	Layers stack.Layers
	// Prober holds the stability curve and its rounds-to-ε summary
	// (nil when RunOptions.ProbeInterval is 0).
	Prober *obs.Prober
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
	// ProbeInterval, if positive, attaches the per-round stability
	// prober: every ProbeInterval units of virtual time an
	// obs.StabilitySampler measurement over the nodes' locks (blocking
	// pairs, unmatched node mass, matched-weight fraction of the LIC
	// optimum, cumulative message/byte counters) is appended to the
	// probe_* series of Metrics. Probing reads protocol state only, so
	// the run itself is bit-identical to an unprobed one.
	ProbeInterval float64
	// Metrics is the run's one sink. It receives the probe series and
	// the rounds-to-ε summary (a private registry when nil), the
	// runtime's simnet_* counters (the simnet.Runtime sink hook) on
	// every return, and, after a successful run, the lid_* protocol
	// counters and the stacked layers' totals.
	Metrics *metrics.Registry
}

// RunEvent executes LID on the deterministic event simulator with the
// given options; opts.Metrics becomes the run's sink. The returned
// error is non-nil only on protocol failure (non-termination or
// asymmetric locks), which Lemma 5 and the mutual-PROP argument
// exclude — tests treat an error as a bug.
func RunEvent(s *pref.System, tbl *satisfaction.Table, opts simnet.Options) (Result, error) {
	sink := opts.Metrics
	opts.Metrics = nil
	return Run(s, tbl, simnet.Event(opts), RunOptions{Metrics: sink})
}

// Run executes LID on the Transport rt builds, with the options' layers
// and hooks, and assembles the matching. A runtime that cannot honour
// a hook fails the run before any node starts. The rounds-to-ε summary
// is published even when the run fails: rungs the curve never reached
// carry the obs.NeverConverged sentinel, so a non-convergent run leaves
// an explicit -1 gauge rather than an absent one.
func Run(s *pref.System, tbl *satisfaction.Table, rt simnet.Runtime, o RunOptions) (Result, error) {
	g := s.Graph()
	nodes := NewNodes(s, tbl)
	var res Result
	var admit simnet.Admitter
	if o.Scheduler.Greedy() {
		// The admitter watches the LID state machines directly, so the
		// stacked layers stay transparent to it.
		admit = NewGreedyAdmitter(s, tbl, nodes, o.Scheduler)
	}
	probeReg := o.Metrics
	if o.ProbeInterval > 0 {
		if probeReg == nil {
			probeReg = metrics.New()
		}
		optimum := matching.LIC(s, tbl).Weight(s)
		res.Prober = obs.NewProber(probeReg, o.ProbeInterval, g.NumEdges(), optimum,
			obs.StabilitySampler(s, tbl, func(u, v graph.NodeID) bool { return nodes[u].LockedWith(v) }))
	}
	hs, layers := o.Stack.Wrap(g, Handlers(nodes))
	res.Layers = layers
	tr, err := rt(g.NumNodes(), res.Prober, admit, o.Metrics)
	if err != nil {
		return res, err
	}
	res.Stats, err = tr.Run(hs)
	res.Prober.PublishSummary(probeReg, nil)
	if err != nil {
		return res, err
	}
	if res.Matching, err = BuildMatching(nodes); err != nil {
		return res, err
	}
	res.PropMessages = res.Stats.SentByKind["PROP"]
	res.RejMessages = res.Stats.SentByKind["REJ"]
	if sink := o.Metrics; sink != nil {
		sink.Counter("lid_runs_total", "completed LID executions").Inc()
		sink.Counter("lid_locked_edges_total", "connections locked across runs").Add(int64(res.Matching.Size()))
		sink.Counter("lid_prop_total", "PROP messages sent").Add(int64(res.PropMessages))
		sink.Counter("lid_rej_total", "REJ messages sent").Add(int64(res.RejMessages))
		layers.Publish(sink)
	}
	return res, nil
}
