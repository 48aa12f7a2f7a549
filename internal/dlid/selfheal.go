package dlid

import (
	"overlaymatch/internal/detector"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
)

// SelfHealConfig assembles the self-healing stack around the
// maintenance nodes: an optional reliable transport below an optional
// heartbeat failure detector (detector.Monitor wrapping
// reliable.Endpoint wrapping Node, the order stack.Spec stacks).
// Zero-valued layers are simply not stacked: RunMode is the run with
// a zero Stack.
type SelfHealConfig struct {
	Mode Mode
	// Stack names the layers. With Stack.Detector enabled, suspicions
	// and restores reach the nodes as synthesized BYEs and HELLO
	// resyncs. With Stack.Reliable.MaxRetries set, exhausted frames
	// escalate LinkDown to the node — the crash-stop detection path
	// that needs no heartbeats.
	Stack stack.Spec
	// Excluded marks nodes silenced by a permanent (never healing)
	// link cut. They are formally alive — a cut node sends no BYE —
	// but unreachable, so extraction ignores their state and
	// maximality is owed only by the rest of the graph.
	Excluded map[graph.NodeID]bool
}

// SelfHealResult extends Result with the stack's own telemetry. The
// embedded layers are nil when not stacked; Monitors[i].Events holds
// the verdict log for latency analysis.
type SelfHealResult struct {
	Result
	stack.Layers
	Suspicions int
	Restores   int
}

// RunSelfHeal seeds the maintenance protocol with the LID/LIC
// matching, stacks the configured detection layers, injects the churn
// schedule, runs to global quiescence under the options' link policy
// (crash windows are injected there), and verifies the structural
// invariants. Faults that the stack failed to repair surface as
// errors, exactly as protocol bugs do in Run. The result keeps the
// nodes of a failed run. opts.Metrics receives the runner's simnet_*
// counters on every return and, after the run quiesces, the dlid_*
// counters and the stacked layers' totals.
func RunSelfHeal(s *pref.System, tbl *satisfaction.Table, cfg SelfHealConfig, schedule []Event, opts simnet.Options) (SelfHealResult, error) {
	initial := matching.LIC(s, tbl)
	nodes := NewNodesMode(s, tbl, initial, cfg.Mode)
	handlers, layers := cfg.Stack.Wrap(s.Graph(), Handlers(nodes))
	res := SelfHealResult{Result: Result{Nodes: nodes}, Layers: layers}
	opts.Quiesce = true
	runner := simnet.NewRunner(s.Graph().NumNodes(), opts)
	for _, ev := range schedule {
		if ev.Leave {
			runner.Schedule(ev.At, ev.Node, CmdLeave{})
		} else {
			runner.Schedule(ev.At, ev.Node, CmdJoin{})
		}
	}
	var err error
	if res.Stats, err = runner.Run(handlers); err != nil {
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
	if reg := opts.Metrics; reg != nil {
		res.Layers.Publish(reg)
		reg.Counter("dlid_runs_total", "completed maintenance runs").Inc()
		reg.Counter("dlid_churn_events_total", "join/leave commands injected").Add(int64(len(schedule)))
		reg.Counter("dlid_proposals_total", "repair proposals sent").Add(int64(res.Proposals))
		reg.Counter("dlid_accepts_total", "repair proposals accepted").Add(int64(res.Accepts))
		reg.Counter("dlid_declines_total", "repair proposals declined").Add(int64(res.Declines))
		reg.Counter("dlid_preemptions_total", "connections dropped for a better proposer").Add(int64(res.Preemptions))
		reg.Counter("dlid_synth_byes_total", "suspected peers handled as synthesized BYEs").Add(int64(res.SynthByes))
		reg.Counter("dlid_resyncs_total", "restored peers re-greeted with HELLO").Add(int64(res.Resyncs))
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
