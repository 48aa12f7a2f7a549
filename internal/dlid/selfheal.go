package dlid

import (
	"overlaymatch/internal/detector"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// SelfHealConfig assembles the self-healing stack around the
// maintenance nodes: an optional reliable transport below an optional
// heartbeat failure detector (detector.Monitor wrapping
// reliable.Endpoint wrapping Node). Zero-valued layers are simply not
// stacked, so the zero config reproduces a plain RunMode.
type SelfHealConfig struct {
	Mode Mode
	// Detector enables the heartbeat monitor layer when
	// Detector.Enabled(). Suspicions and restores reach the nodes as
	// synthesized BYEs and HELLO resyncs.
	Detector detector.Config
	// Reliable enables the transport layer when Reliable.RTO > 0.
	// With MaxRetries set, exhausted frames escalate LinkDown to the
	// node — the crash-stop detection path that needs no heartbeats.
	Reliable reliable.Config
	// Excluded marks nodes silenced by a permanent (never healing)
	// link cut. They are formally alive — a cut node sends no BYE —
	// but unreachable, so extraction ignores their state and
	// maximality is owed only by the rest of the graph.
	Excluded map[graph.NodeID]bool
}

// SelfHealResult extends Result with the stack's own telemetry.
type SelfHealResult struct {
	Result
	// Monitors are the detector layer instances (nil when disabled);
	// Monitors[i].Events holds the verdict log for latency analysis.
	Monitors []*detector.Monitor
	// Endpoints are the transport layer instances (nil when disabled).
	Endpoints  []*reliable.Endpoint
	Suspicions int
	Restores   int
}

// Adjacency returns the per-node neighbor lists of the system's graph
// (the monitor set for the detector layer).
func Adjacency(s *pref.System) [][]int {
	g := s.Graph()
	adj := make([][]int, g.NumNodes())
	for i := range adj {
		adj[i] = g.Neighbors(i)
	}
	return adj
}

// RunSelfHeal seeds the maintenance protocol with the LID/LIC
// matching, stacks the configured detection layers, injects the churn
// schedule, runs to global quiescence under the options' link policy
// (crash windows are injected there), and verifies the structural
// invariants. Faults that the stack failed to repair surface as
// errors, exactly as protocol bugs do in Run.
func RunSelfHeal(s *pref.System, tbl *satisfaction.Table, cfg SelfHealConfig, schedule []Event, opts simnet.Options) (SelfHealResult, error) {
	initial := matching.LIC(s, tbl)
	nodes := NewNodesMode(s, tbl, initial, cfg.Mode)
	handlers := Handlers(nodes)
	var res SelfHealResult
	if cfg.Reliable.RTO > 0 {
		res.Endpoints = reliable.WrapConfig(handlers, cfg.Reliable)
		handlers = reliable.Handlers(res.Endpoints)
	}
	if cfg.Detector.Enabled() {
		res.Monitors = detector.Wrap(handlers, Adjacency(s), cfg.Detector)
		handlers = detector.Handlers(res.Monitors)
	}
	opts.Quiesce = true
	runner := simnet.NewRunner(s.Graph().NumNodes(), opts)
	for _, ev := range schedule {
		if ev.Leave {
			runner.Schedule(ev.At, ev.Node, CmdLeave{})
		} else {
			runner.Schedule(ev.At, ev.Node, CmdJoin{})
		}
	}
	stats, err := runner.Run(handlers)
	res.Stats = stats
	res.Nodes = nodes
	if err != nil {
		return res, err
	}
	for _, nd := range nodes {
		res.Proposals += nd.Proposals
		res.Accepts += nd.Accepts
		res.Declines += nd.Declines
		res.Preemptions += nd.Preemptions
		res.SynthByes += nd.SynthByes
		res.Resyncs += nd.Resyncs
	}
	res.Suspicions = detector.TotalSuspicions(res.Monitors)
	res.Restores = detector.TotalRestores(res.Monitors)
	if opts.Metrics != nil {
		detector.PublishMetrics(opts.Metrics, res.Monitors)
		reliable.PublishMetrics(opts.Metrics, res.Endpoints)
		opts.Metrics.Counter("dlid_preemptions_total", "connections dropped for a better proposer").
			Add(int64(res.Preemptions))
		opts.Metrics.Counter("dlid_synth_byes_total", "suspected peers handled as synthesized BYEs").
			Add(int64(res.SynthByes))
		opts.Metrics.Counter("dlid_resyncs_total", "restored peers re-greeted with HELLO").
			Add(int64(res.Resyncs))
	}
	live, err := extractLive(s, nodes, cfg.Excluded)
	if err != nil {
		return res, err
	}
	res.Live = live
	if err := VerifyMaximalExcluding(s, nodes, live, cfg.Excluded); err != nil {
		return res, err
	}
	return res, nil
}
