package lid

import (
	"time"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
)

// Result bundles the outcome of one LID execution.
type Result struct {
	Matching *matching.Matching
	Stats    simnet.Stats
	// PropMessages and RejMessages break down the message count.
	PropMessages int
	RejMessages  int
}

// RunEvent executes LID on the deterministic event simulator with the
// given options. The returned error is non-nil only on protocol
// failure (non-termination or asymmetric locks), which Lemma 5 and the
// mutual-PROP argument exclude — tests treat an error as a bug.
func RunEvent(s *pref.System, tbl *satisfaction.Table, opts simnet.Options) (Result, error) {
	return RunEventScheduled(s, tbl, opts, SchedulerSpec{})
}

// RunEventScheduled is RunEvent with an admission scheduler: a greedy
// spec installs the heaviest-frontier GreedyAdmitter (see scheduler.go)
// as the runner's Admitter; the zero/canonical spec is RunEvent
// verbatim. The matching is the same LIC either way — the scheduler
// only changes message and round counts.
func RunEventScheduled(s *pref.System, tbl *satisfaction.Table, opts simnet.Options, spec SchedulerSpec) (Result, error) {
	nodes := NewNodes(s, tbl)
	if spec.Greedy() {
		opts.Admitter = NewGreedyAdmitter(s, tbl, nodes, spec)
	}
	runner := simnet.NewRunner(s.Graph().NumNodes(), opts)
	stats, err := runner.Run(Handlers(nodes))
	if err != nil {
		return Result{Stats: stats}, err
	}
	return Finish(nodes, stats, opts.Metrics)
}

// RunEventProbed is RunEvent with the per-round stability prober
// attached: every `interval` units of virtual time an
// obs.StabilitySampler measurement over the nodes' locks (blocking
// pairs, unmatched node mass, matched-weight fraction of the LIC
// optimum, cumulative message/byte counters) is appended to the
// probe_* series of reg, and the rounds-to-ε summary gauges are
// published into reg when the run finishes. The returned prober
// exposes the raw curve (Prober.Curve) and the summary
// (Prober.RoundsToEps). Probing reads protocol state only — the run
// itself is bit-identical to an unprobed RunEvent.
func RunEventProbed(s *pref.System, tbl *satisfaction.Table, opts simnet.Options, interval float64, reg *metrics.Registry) (Result, *obs.Prober, error) {
	return RunEventProbedScheduled(s, tbl, opts, interval, reg, SchedulerSpec{})
}

// RunEventProbedScheduled is RunEventProbed with an admission
// scheduler (see RunEventScheduled).
func RunEventProbedScheduled(s *pref.System, tbl *satisfaction.Table, opts simnet.Options, interval float64, reg *metrics.Registry, spec SchedulerSpec) (Result, *obs.Prober, error) {
	nodes := NewNodes(s, tbl)
	g := s.Graph()
	optimum := matching.LIC(s, tbl).Weight(s)
	prober := obs.NewProber(reg, interval, g.NumEdges(), optimum,
		obs.StabilitySampler(s, tbl, func(u, v graph.NodeID) bool { return nodes[u].LockedWith(v) }))
	opts.Prober = prober
	if spec.Greedy() {
		opts.Admitter = NewGreedyAdmitter(s, tbl, nodes, spec)
	}
	stats, err := simnet.NewRunner(g.NumNodes(), opts).Run(Handlers(nodes))
	// The summary is published even when the run errored out (budget
	// exhausted, non-termination): rungs the curve never reached carry
	// the obs.NeverConverged sentinel, so a non-convergent run leaves
	// an explicit -1 gauge rather than an absent one — consumers must
	// not conflate "missing" with "converged instantly".
	prober.PublishSummary(reg, nil)
	if err != nil {
		return Result{Stats: stats}, prober, err
	}
	res, err := Finish(nodes, stats, opts.Metrics)
	return res, prober, err
}

// GoOptions configures a goroutine-runtime LID execution: a
// transport.Cluster on the in-process wire.
type GoOptions struct {
	// Timeout bounds the wall-clock duration (0 = the cluster's 30s
	// default).
	Timeout time.Duration
	// Metrics, if non-nil, receives every node's transport_* wire
	// counters and lid.Finish's protocol counters when the run
	// finishes.
	Metrics *metrics.Registry
	// Policy, if non-nil, is the fault-injection link policy (see
	// transport.ClusterConfig.Policy). Only delivery-preserving faults
	// keep bare LID correct — wrap the handlers in package reliable
	// for drop/corrupt faults.
	Policy simnet.LinkPolicy
	// Obs, if non-nil, is the telemetry recorder (package obs). The
	// goroutine runtime has no virtual clock, so events carry time 0
	// and only the Lamport stamps order them; the log's record order is
	// a real interleaving but not reproducible across runs.
	Obs *obs.Recorder
}

// RunGoroutines executes LID with one real goroutine per peer. The
// interleaving is up to the Go scheduler; the outcome must still be
// the unique LIC matching.
func RunGoroutines(s *pref.System, tbl *satisfaction.Table, timeout time.Duration) (Result, error) {
	return RunGoroutinesOpts(s, tbl, GoOptions{Timeout: timeout})
}

// RunGoroutinesOpts is RunGoroutines with telemetry, metrics and a
// link policy. Every message crosses the in-process wire as an
// encoded frame, so the run also exercises the codecs.
func RunGoroutinesOpts(s *pref.System, tbl *satisfaction.Table, opts GoOptions) (Result, error) {
	nodes := NewNodes(s, tbl)
	cluster, err := transport.NewMemoryCluster(s.Graph().NumNodes(), transport.ClusterConfig{
		Timeout: opts.Timeout,
		Policy:  opts.Policy,
		Obs:     opts.Obs,
	})
	if err != nil {
		return Result{}, err
	}
	stats, err := cluster.Run(Handlers(nodes))
	for _, nd := range cluster.Nodes() {
		nd.PublishMetrics(opts.Metrics)
	}
	if err != nil {
		return Result{Stats: stats}, err
	}
	return Finish(nodes, stats, opts.Metrics)
}

// Finish assembles the matching from nodes whose run ended on any
// simnet.Transport and, when sink is non-nil, publishes the lid_*
// protocol counters into it (the transport publishes its own message
// counters). Callers that wire a runtime by hand end their run here,
// as the Run* helpers do.
func Finish(nodes []*Node, stats simnet.Stats, sink *metrics.Registry) (Result, error) {
	m, err := BuildMatching(nodes)
	if err != nil {
		return Result{Stats: stats}, err
	}
	if sink != nil {
		sink.Counter("lid_runs_total", "completed LID executions").Inc()
		sink.Counter("lid_locked_edges_total", "connections locked across runs").Add(int64(m.Size()))
		sink.Counter("lid_prop_total", "PROP messages sent").Add(int64(stats.SentByKind["PROP"]))
		sink.Counter("lid_rej_total", "REJ messages sent").Add(int64(stats.SentByKind["REJ"]))
	}
	return Result{
		Matching:     m,
		Stats:        stats,
		PropMessages: stats.SentByKind["PROP"],
		RejMessages:  stats.SentByKind["REJ"],
	}, nil
}
