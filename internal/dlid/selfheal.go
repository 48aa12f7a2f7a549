package dlid

import (
	"fmt"

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
	live, err := extractLiveExcluding(s, nodes, cfg.Excluded)
	if err != nil {
		return res, err
	}
	res.Live = live
	if err := VerifyMaximalExcluding(s, nodes, live, cfg.Excluded); err != nil {
		return res, err
	}
	return res, nil
}

// extractLiveExcluding is extractLive with silenced nodes ignored: an
// excluded node's own view is untrusted (it may still believe in
// connections its partners repaired away), but every reachable node
// must have dropped its edges toward the silenced ones.
func extractLiveExcluding(s *pref.System, nodes []*Node, excluded map[graph.NodeID]bool) (*matching.Matching, error) {
	if len(excluded) == 0 {
		return extractLive(s, nodes)
	}
	m := matching.New(len(nodes))
	for _, nd := range nodes {
		if excluded[nd.id] {
			continue
		}
		if !nd.Alive() {
			if len(nd.Connections()) != 0 {
				return nil, fmt.Errorf("dlid: dead node %d holds connections", nd.id)
			}
			continue
		}
		for _, v := range nd.Connections() {
			if excluded[v] {
				return nil, fmt.Errorf("dlid: node %d still connected to silenced %d", nd.id, v)
			}
			if !nodes[v].Alive() {
				return nil, fmt.Errorf("dlid: node %d connected to dead %d", nd.id, v)
			}
			if nd.id < v {
				m.Add(nd.id, v)
			} else if !nodes[v].neighborView(nd.id).connected {
				return nil, fmt.Errorf("dlid: asymmetric connection %d-%d", nd.id, v)
			}
		}
	}
	for _, nd := range nodes {
		if excluded[nd.id] || !nd.Alive() {
			continue
		}
		conns := nd.Connections()
		if len(conns) != m.DegreeOf(nd.id) {
			return nil, fmt.Errorf("dlid: asymmetric connections at node %d", nd.id)
		}
		if len(conns) > s.Quota(nd.id) {
			return nil, fmt.Errorf("dlid: node %d over quota", nd.id)
		}
	}
	return m, nil
}
