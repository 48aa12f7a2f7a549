package dlid

import (
	"fmt"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// Event is one scheduled churn command.
type Event struct {
	At    float64
	Node  graph.NodeID
	Leave bool // false = join
}

// Schedule builds a consistent random churn schedule: events spaced
// `gap` time units apart (wide enough for repairs to quiesce between
// events under unit-ish latencies), alternating between leaves of
// random alive nodes and joins of random dead nodes with probability
// leaveProb, never dropping the population below minAlive.
func Schedule(s *pref.System, src *rng.Source, events int, gap, leaveProb float64, minAlive int) []Event {
	n := s.Graph().NumNodes()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	numAlive := n
	var out []Event
	t := gap
	for len(out) < events {
		var aliveIDs, deadIDs []graph.NodeID
		for i, a := range alive {
			if a {
				aliveIDs = append(aliveIDs, i)
			} else {
				deadIDs = append(deadIDs, i)
			}
		}
		leave := src.Bool(leaveProb)
		if len(deadIDs) == 0 {
			leave = true
		}
		if numAlive <= minAlive {
			leave = false
			if len(deadIDs) == 0 {
				break // population pinned
			}
		}
		var ev Event
		if leave {
			ev = Event{At: t, Node: aliveIDs[src.Intn(len(aliveIDs))], Leave: true}
			alive[ev.Node] = false
			numAlive--
		} else {
			ev = Event{At: t, Node: deadIDs[src.Intn(len(deadIDs))], Leave: false}
			alive[ev.Node] = true
			numAlive++
		}
		out = append(out, ev)
		t += gap
	}
	return out
}

// Result reports a maintenance run.
type Result struct {
	Nodes []*Node
	Stats simnet.Stats
	// Live is the final matching among alive peers.
	Live *matching.Matching
	// Aggregated protocol counters.
	Proposals   int
	Accepts     int
	Declines    int
	Preemptions int
	SynthByes   int
	Resyncs     int
}

// Run seeds the maintenance protocol with the LID/LIC matching,
// injects the event schedule, runs to global quiescence, and verifies
// the structural invariants (symmetry, feasibility, liveness of
// endpoints, maximality on the live subgraph). Any violation is an
// error — the tests treat it as a protocol bug.
func Run(s *pref.System, tbl *satisfaction.Table, schedule []Event, opts simnet.Options) (Result, error) {
	return RunMode(s, tbl, Complete, schedule, opts)
}

// RunMode is Run with an explicit repair discipline.
func RunMode(s *pref.System, tbl *satisfaction.Table, mode Mode, schedule []Event, opts simnet.Options) (Result, error) {
	initial := matching.LIC(s, tbl)
	nodes := NewNodesMode(s, tbl, initial, mode)
	opts.Quiesce = true
	runner := simnet.NewRunner(s.Graph().NumNodes(), opts)
	for _, ev := range schedule {
		if ev.Leave {
			runner.Schedule(ev.At, ev.Node, CmdLeave{})
		} else {
			runner.Schedule(ev.At, ev.Node, CmdJoin{})
		}
	}
	stats, err := runner.Run(Handlers(nodes))
	if err != nil {
		return Result{Stats: stats}, err
	}
	res := Result{Nodes: nodes, Stats: stats}
	for _, nd := range nodes {
		res.Proposals += nd.Proposals
		res.Accepts += nd.Accepts
		res.Declines += nd.Declines
		res.Preemptions += nd.Preemptions
		res.SynthByes += nd.SynthByes
		res.Resyncs += nd.Resyncs
	}
	// The simnet message instruments already merged into opts.Metrics
	// when the runner finished; add the protocol-level counters on top.
	// The per-node ints stay the exact per-run view.
	if opts.Metrics != nil {
		opts.Metrics.Counter("dlid_runs_total", "completed maintenance runs").Inc()
		opts.Metrics.Counter("dlid_churn_events_total", "join/leave commands injected").
			Add(int64(len(schedule)))
		opts.Metrics.Counter("dlid_proposals_total", "repair proposals sent").
			Add(int64(res.Proposals))
		opts.Metrics.Counter("dlid_accepts_total", "repair proposals accepted").
			Add(int64(res.Accepts))
		opts.Metrics.Counter("dlid_declines_total", "repair proposals declined").
			Add(int64(res.Declines))
		opts.Metrics.Counter("dlid_preemptions_total", "connections dropped for a better proposer").
			Add(int64(res.Preemptions))
		opts.Metrics.Counter("dlid_synth_byes_total", "suspected peers handled as synthesized BYEs").
			Add(int64(res.SynthByes))
		opts.Metrics.Counter("dlid_resyncs_total", "restored peers re-greeted with HELLO").
			Add(int64(res.Resyncs))
	}
	live, err := extractLive(s, nodes, nil)
	if err != nil {
		return res, err
	}
	res.Live = live
	if err := verifyMaximal(s, nodes, live); err != nil {
		return res, err
	}
	return res, nil
}

// extractLive builds the live matching and verifies symmetry,
// feasibility and endpoint liveness. Silenced (excluded) nodes are
// ignored: an excluded node's own view is untrusted (it may still
// believe in connections its partners repaired away), but every
// reachable node must have dropped its edges toward the silenced ones.
func extractLive(s *pref.System, nodes []*Node, excluded map[graph.NodeID]bool) (*matching.Matching, error) {
	lists := make([][]graph.NodeID, len(nodes))
	for _, nd := range nodes {
		if excluded[nd.id] {
			continue
		}
		conns := nd.Connections()
		if !nd.Alive() {
			if len(conns) != 0 {
				return nil, fmt.Errorf("dlid: dead node %d holds connections", nd.id)
			}
			continue
		}
		for _, v := range conns {
			if excluded[v] {
				return nil, fmt.Errorf("dlid: node %d still connected to silenced %d", nd.id, v)
			}
			if !nodes[v].Alive() {
				return nil, fmt.Errorf("dlid: node %d connected to dead %d", nd.id, v)
			}
		}
		lists[nd.id] = conns
	}
	m, err := matching.Assemble(s, func(id graph.NodeID) []graph.NodeID { return lists[id] })
	if err != nil {
		return nil, fmt.Errorf("dlid: %w", err)
	}
	return m, nil
}

// verifyMaximal checks that no unmatched live edge has free quota at
// both endpoints.
func verifyMaximal(s *pref.System, nodes []*Node, live *matching.Matching) error {
	return VerifyMaximalExcluding(s, nodes, live, nil)
}

// VerifyMaximalExcluding checks maximality of the live matching while
// ignoring edges incident to the excluded nodes. Crash-stop runs need
// this weaker check: a node silenced by a permanent link cut is still
// formally alive (it never sent BYE), yet no edge across the cut can
// be repaired, so only the rest of the graph owes maximality.
func VerifyMaximalExcluding(s *pref.System, nodes []*Node, live *matching.Matching, excluded map[graph.NodeID]bool) error {
	for _, e := range s.Graph().Edges() {
		if excluded[e.U] || excluded[e.V] {
			continue
		}
		if !nodes[e.U].Alive() || !nodes[e.V].Alive() || live.Has(e.U, e.V) {
			continue
		}
		if live.DegreeOf(e.U) < s.Quota(e.U) && live.DegreeOf(e.V) < s.Quota(e.V) {
			return fmt.Errorf("dlid: live matching not maximal at edge %v", e)
		}
	}
	return nil
}

// LiveLICWeight computes the weight of a fresh LIC on the live
// subgraph — the repair-quality yardstick. The weight is taken under
// the original system, so it compares with the live matching's.
func LiveLICWeight(s *pref.System, nodes []*Node) (float64, error) {
	m, err := matching.InducedLIC(s, func(id graph.NodeID) bool { return nodes[id].Alive() })
	if err != nil {
		return 0, err
	}
	return m.Weight(s), nil
}
