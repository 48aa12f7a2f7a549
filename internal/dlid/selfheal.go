package dlid

import (
	"errors"
	"fmt"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
)

// SelfHealConfig assembles the self-healing stack around the
// maintenance nodes: an optional reliable transport below an optional
// heartbeat failure detector (detector.Monitor wrapping
// reliable.Endpoint wrapping Node, the order stack.Spec stacks), and
// the run's probe and sink hooks. Zero-valued layers are simply not
// stacked.
type SelfHealConfig struct {
	Mode Mode
	// Stack names the layers. With Stack.Detector enabled, suspicions
	// and restores reach the nodes as synthesized BYEs and HELLO
	// resyncs. With Stack.Reliable.MaxRetries set, exhausted frames
	// escalate LinkDown to the node — the crash-stop detection path
	// that needs no heartbeats.
	Stack stack.Spec
	// ProbeInterval, if positive, attaches the stability prober over
	// the nodes' connections (see stack.Options.ProbeInterval). The
	// sampler scores the whole graph, departed nodes included.
	ProbeInterval float64
	// Metrics is the run's one sink (see stack.Options.Metrics). Once
	// the run quiesces it also receives the dlid_* counters.
	Metrics *metrics.Registry
	// Excluded marks nodes silenced by a permanent (never healing)
	// link cut. They are formally alive — a cut node sends no BYE —
	// but unreachable, so extraction ignores their state and
	// maximality is owed only by the rest of the graph.
	Excluded map[graph.NodeID]bool
}

// RunSelfHeal is dlid's entry point. It seeds the maintenance protocol
// with the LID/LIC matching and runs it through the run recipe
// (stack.Run) on the event runtime under opts, in Quiesce mode, with
// the churn schedule injected by the runtime (see scheduled) and the
// options' link policy injecting crash windows. It then verifies the
// structural invariants (symmetry, feasibility, liveness of endpoints,
// maximality on the live subgraph). Faults the stack failed to repair
// surface as errors, exactly as protocol bugs do; the tests treat an
// error as a bug. The result keeps the nodes of a failed run.
func RunSelfHeal(s *pref.System, tbl *satisfaction.Table, cfg SelfHealConfig, schedule []Event, opts simnet.Options) (Result, error) {
	nodes := NewNodesMode(s, tbl, matching.LIC(s, tbl), cfg.Mode)
	opts.Quiesce = true
	r, err := stack.Run(s, tbl, stack.Protocol{
		Handlers: Handlers(nodes),
		Holds:    func(u, v graph.NodeID) bool { return nodes[u].neighborView(v).connected },
		Assemble: func() (*matching.Matching, error) {
			live, err := extractLive(s, nodes, cfg.Excluded)
			if err == nil {
				err = VerifyMaximalExcluding(s, nodes, live, cfg.Excluded)
			}
			return live, err
		},
	}, scheduled(simnet.Event(opts), schedule), stack.Options{Stack: cfg.Stack, ProbeInterval: cfg.ProbeInterval, Metrics: cfg.Metrics})
	res := Result{Nodes: nodes, Stats: r.Stats, Live: r.Matching, Layers: r.Layers, Prober: r.Prober}
	var assembly *stack.AssemblyError
	if err != nil && !errors.As(err, &assembly) {
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
	if reg := cfg.Metrics; reg != nil {
		reg.Counter("dlid_runs_total", "completed maintenance runs").Inc()
		reg.Counter("dlid_churn_events_total", "join/leave commands injected").Add(int64(len(schedule)))
		reg.Counter("dlid_proposals_total", "repair proposals sent").Add(int64(res.Proposals))
		reg.Counter("dlid_accepts_total", "repair proposals accepted").Add(int64(res.Accepts))
		reg.Counter("dlid_declines_total", "repair proposals declined").Add(int64(res.Declines))
		reg.Counter("dlid_preemptions_total", "connections dropped for a better proposer").Add(int64(res.Preemptions))
		reg.Counter("dlid_synth_byes_total", "suspected peers handled as synthesized BYEs").Add(int64(res.SynthByes))
		reg.Counter("dlid_resyncs_total", "restored peers re-greeted with HELLO").Add(int64(res.Resyncs))
	}
	return res, err
}

// scheduled wraps rt so that every Transport it builds carries the
// churn schedule, each event a leave or join command for its node at
// its time. Only a runtime whose Transport takes scheduled commands
// (the event Runner's Schedule) can run a schedule.
func scheduled(rt simnet.Runtime, schedule []Event) simnet.Runtime {
	return func(n int, probe *obs.Prober, admit simnet.Admitter, sink *metrics.Registry) (simnet.Transport, error) {
		tr, err := rt(n, probe, admit, sink)
		if err != nil || len(schedule) == 0 {
			return tr, err
		}
		sched, ok := tr.(interface {
			Schedule(at float64, to int, msg simnet.Message)
		})
		if !ok {
			return nil, fmt.Errorf("dlid: the runtime cannot schedule churn commands")
		}
		for _, ev := range schedule {
			if ev.Leave {
				sched.Schedule(ev.At, ev.Node, CmdLeave{})
			} else {
				sched.Schedule(ev.At, ev.Node, CmdJoin{})
			}
		}
		return tr, nil
	}
}
