// Package phased implements the distributed coverage-first protocol —
// the fully distributed counterpart of variants.CoverageFirst and the
// protocol-level answer to §7's "minimum satisfaction guarantees
// individually to each collaborating peer".
//
// The idea: run LID twice. Phase 1 clamps every quota to 1, so the
// network first negotiates a maximal weighted 1-matching — everyone's
// *first* connection — before anyone spends capacity on a second.
// Phase 2 then runs LID on the residual instance (remaining quota,
// phase-1 partner excluded).
//
// There is no global barrier: each peer switches to phase 2 the moment
// its own phase-1 protocol terminates locally, tagging messages with
// their phase and buffering phase-2 messages that arrive early. Since
// LID's outcome is interleaving-invariant (Lemmas 3–6), deferred
// delivery cannot change either phase's result, so the union of the
// two phases equals the centralized variants.CoverageFirst matching
// exactly — the equivalence test drives both and compares.
package phased

import (
	"fmt"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
)

// Msg tags a LID message with its phase.
type Msg struct {
	Phase uint8
	Inner lid.Msg
}

// Kind implements simnet.Kinder, e.g. "P1-PROP".
func (m Msg) Kind() string {
	return fmt.Sprintf("P%d-%s", m.Phase, m.Inner.Kind())
}

// Node runs the two-phase protocol for one peer.
type Node struct {
	s   *pref.System
	tbl *satisfaction.Table
	id  graph.NodeID

	phase  uint8
	p1, p2 *lid.Node
	buffer []buffered
	halted bool
}

type buffered struct {
	from int
	msg  lid.Msg
}

// NewNode builds the two-phase peer.
func NewNode(s *pref.System, tbl *satisfaction.Table, id graph.NodeID) *Node {
	return &Node{s: s, tbl: tbl, id: id, phase: 1}
}

// NewNodes builds one Node per graph node.
func NewNodes(s *pref.System, tbl *satisfaction.Table) []*Node {
	nodes := make([]*Node, s.Graph().NumNodes())
	for id := range nodes {
		nodes[id] = NewNode(s, tbl, id)
	}
	return nodes
}

// Handlers adapts nodes for the simnet runtimes.
func Handlers(nodes []*Node) []simnet.Handler {
	hs := make([]simnet.Handler, len(nodes))
	for i, n := range nodes {
		hs[i] = n
	}
	return hs
}

// phaseCtx tags outgoing messages and suppresses the inner Halt (the
// wrapper owns termination).
type phaseCtx struct {
	simnet.Context
	phase uint8
}

func (c *phaseCtx) Send(to int, msg simnet.Message) {
	c.Context.Send(to, Msg{Phase: c.phase, Inner: msg.(lid.Msg)})
}

func (c *phaseCtx) Halt() {}

// Init implements simnet.Handler.
func (n *Node) Init(ctx simnet.Context) {
	q1 := n.s.Quota(n.id)
	if q1 > 1 {
		q1 = 1
	}
	n.p1 = lid.NewNodeRestricted(n.s, n.tbl, n.id, q1, nil)
	n.p1.Init(&phaseCtx{Context: ctx, phase: 1})
	n.maybeTransition(ctx)
}

// HandleMessage implements simnet.Handler.
func (n *Node) HandleMessage(ctx simnet.Context, from int, msg simnet.Message) {
	m, ok := msg.(Msg)
	if !ok {
		panic(fmt.Sprintf("phased: node %d received %T", n.id, msg))
	}
	switch m.Phase {
	case 1:
		// Phase-1 messages are always delivered to the phase-1 machine:
		// even after its local termination it can legally receive
		// crossing PROPs/REJs, which it absorbs.
		n.p1.HandleMessage(&phaseCtx{Context: ctx, phase: 1}, from, m.Inner)
		n.maybeTransition(ctx)
	case 2:
		if n.phase == 1 {
			// Our phase 1 is still running; the sender's is done. Defer.
			n.buffer = append(n.buffer, buffered{from: from, msg: m.Inner})
			return
		}
		n.p2.HandleMessage(&phaseCtx{Context: ctx, phase: 2}, from, m.Inner)
		n.checkDone(ctx)
	default:
		panic(fmt.Sprintf("phased: node %d received phase %d", n.id, m.Phase))
	}
}

// maybeTransition starts phase 2 once phase 1 has locally terminated.
func (n *Node) maybeTransition(ctx simnet.Context) {
	if n.phase != 1 || !n.p1.Halted() {
		return
	}
	n.phase = 2
	firstConns := n.p1.Locked()
	exclude := make(map[graph.NodeID]bool, len(firstConns))
	for _, v := range firstConns {
		exclude[v] = true
	}
	q2 := n.s.Quota(n.id) - len(firstConns)
	n.p2 = lid.NewNodeRestricted(n.s, n.tbl, n.id, q2, exclude)
	p2ctx := &phaseCtx{Context: ctx, phase: 2}
	n.p2.Init(p2ctx)
	for _, b := range n.buffer {
		n.p2.HandleMessage(p2ctx, b.from, b.msg)
	}
	n.buffer = nil
	n.checkDone(ctx)
}

func (n *Node) checkDone(ctx simnet.Context) {
	if n.phase == 2 && n.p2.Halted() && !n.halted {
		n.halted = true
		ctx.Halt()
	}
}

// Halted reports local termination of both phases.
func (n *Node) Halted() bool { return n.halted }

// Connections returns the union of both phases' locked sets.
func (n *Node) Connections() []graph.NodeID {
	out := append([]graph.NodeID(nil), n.p1.Locked()...)
	return append(out, n.p2.Locked()...)
}

// holds reports whether either phase has locked the connection to v.
// A phase machine exists from its start on, so the sampler sees a node
// that has not started a phase hold nothing in it.
func (n *Node) holds(v graph.NodeID) bool {
	return n.p1 != nil && n.p1.LockedWith(v) || n.p2 != nil && n.p2.LockedWith(v)
}

// Run executes the two-phase protocol through the run recipe
// (stack.Run) on the Transport rt builds, with the options' layers and
// hooks, and assembles the combined matching. The stability sampler
// reads both phases' locks.
func Run(s *pref.System, tbl *satisfaction.Table, rt simnet.Runtime, o stack.Options) (stack.Result, error) {
	nodes := NewNodes(s, tbl)
	return stack.Run(s, tbl, stack.Protocol{
		Handlers: Handlers(nodes),
		Holds:    func(u, v graph.NodeID) bool { return nodes[u].holds(v) },
		Assemble: func() (*matching.Matching, error) { return buildMatching(s, nodes) },
	}, rt, o)
}

// buildMatching assembles the union of both phases' locked sets; a
// connection one endpoint holds and the other does not is an error.
func buildMatching(s *pref.System, nodes []*Node) (*matching.Matching, error) {
	m, err := matching.Assemble(s, func(id graph.NodeID) []graph.NodeID { return nodes[id].Connections() })
	if err != nil {
		return nil, fmt.Errorf("phased: %w", err)
	}
	return m, nil
}
