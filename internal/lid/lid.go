// Package lid implements LID (Algorithm 1): the paper's fully
// distributed, Local Information-based algorithm for many-to-many
// maximum weighted matchings, applied to overlay construction with
// preference lists. Each peer runs the same state machine over the four
// sets of §5 — Ui (unresolved neighbors), Pi (proposed-to), Ai
// (approached by), Ki (locked) — exchanging only PROP and REJ messages
// with immediate neighbors:
//
//   - At start a peer proposes (PROP) to its up-to-bi heaviest-weight
//     neighbors, by the symmetric eq.-9 weights of its weight list.
//   - A mutual PROP locks the connection at both endpoints.
//   - An explicit REJ from a proposed neighbor triggers exactly one
//     replacement proposal to the next-heaviest unproposed neighbor.
//   - When a peer's quota fills, it sends REJ to every remaining
//     unresolved neighbor and terminates; a peer also terminates when
//     every neighbor is resolved (Ui = ∅).
//
// The implementation enforces the protocol invariants (never more than
// bi outstanding proposals, REJ never from an approached neighbor, no
// message after resolution) with panics, so simulation tests double as
// protocol-violation detectors. Nodes run unchanged on both simnet
// runtimes; Lemmas 3–6 make the outcome equal to package matching's
// LIC on every workload and interleaving, which experiment E2 checks.
package lid

import (
	"fmt"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// Msg is the LID wire message. The protocol needs nothing beyond the
// kind: weights were exchanged up front when the weight lists were
// built (one ΔS̄ value per direction per edge), as §5 describes.
type Msg struct {
	IsProp bool
}

// Kind implements simnet.Kinder for per-kind accounting.
func (m Msg) Kind() string {
	if m.IsProp {
		return "PROP"
	}
	return "REJ"
}

var (
	propMsg = Msg{IsProp: true}
	rejMsg  = Msg{IsProp: false}
)

// neighbor states; absorbing transitions only (see comments on Node).
type nstate uint8

const (
	stUntouched  nstate = iota // in U, not proposed, not approached
	stProposed                 // in U, we proposed, no answer yet (P\K)
	stApproached               // in U, they proposed, we did not (A)
	stLocked                   // in K
	stRejectedUs               // they sent REJ (out of U)
	stWeRejected               // we sent REJ (out of U)
)

// Node is the per-peer LID state machine; it implements simnet.Handler.
// All methods are called sequentially by the runtimes; a Node must not
// be shared between runs.
type Node struct {
	sys   *pref.System // shared, read-only: BuildMatching's assembly context
	id    graph.NodeID
	quota int
	// list is the weight list: neighbors in decreasing eq.-9 edge
	// weight, the proposal order of the algorithm, and its inverse
	// lookup (shared, read-only). state is this node's per-neighbor
	// protocol state, indexed by weight-list position, so per-run
	// allocations stay one small slice — no per-node map.
	list  satisfaction.WeightList
	state []nstate

	cursor     int // next weight-list index to consider for a proposal
	unresolved int // |U|
	pending    int // |P \ K|
	locked     []graph.NodeID
	halted     bool
	wave       obs.SpanID // telemetry: the node's proposal-wave span
}

// NewNode builds the state machine for node id.
func NewNode(s *pref.System, tbl *satisfaction.Table, id graph.NodeID) *Node {
	return NewNodeRestricted(s, tbl, id, s.Quota(id), nil)
}

// NewNodeRestricted builds the state machine for node id with an
// explicit quota and a set of excluded neighbors the protocol must
// treat as pre-resolved (never proposed to, never answered). Phased
// protocols (the distributed coverage-first variant) use this to run
// LID on a residual instance.
func NewNodeRestricted(s *pref.System, tbl *satisfaction.Table, id graph.NodeID, quota int, exclude map[graph.NodeID]bool) *Node {
	list := tbl.WeightList(s, id)
	if quota < 0 {
		panic(fmt.Sprintf("lid: negative quota for node %d", id))
	}
	n := &Node{
		sys:        s,
		id:         id,
		quota:      quota,
		list:       list,
		state:      make([]nstate, len(list.Order)),
		unresolved: len(list.Order),
	}
	for nb := range exclude {
		pos, ok := list.Pos(nb)
		if !ok {
			panic(fmt.Sprintf("lid: excluded node %d is not a neighbor of %d", nb, id))
		}
		// Pre-resolved, exactly as if the neighbor had already
		// rejected us: never contacted, not counted unresolved.
		n.state[pos] = stRejectedUs
		n.unresolved--
	}
	return n
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

// Init implements simnet.Handler: propose to the top min(bi, |Γi|)
// eligible neighbors of the weight list (Algorithm 1, lines 1–3).
// Pre-resolved (excluded) entries are skipped. Under deferred admission
// (simnet.Admitter) Init may run after messages have already arrived,
// so entries can be approached (answer with the completing PROP and
// lock, as proposeNext does) or resolved (skip) — at time-0 admission
// both cases are unreachable and the loop degenerates to lines 1–3.
func (n *Node) Init(ctx simnet.Context) {
	if n.halted {
		// Deferred admission only: every neighbor resolved us (REJ
		// broadcasts) before we were released, and checkDone already
		// terminated the node from a delivery context.
		return
	}
	// Telemetry: the proposal wave spans the node's whole convergence
	// arc, Init to local termination. The rec != nil guard keeps the
	// detail formatting off the disabled path.
	if rec := simnet.ObserverOf(ctx); rec != nil {
		n.wave = rec.OpenSpan(n.id, "lid.wave", fmt.Sprintf("quota=%d deg=%d", n.quota, len(n.list.Order)), ctx.Time())
	}
	for n.pending+len(n.locked) < n.quota && n.cursor < len(n.list.Order) {
		pos := n.cursor
		v := n.list.Order[pos]
		n.cursor++
		switch n.state[pos] {
		case stUntouched:
			n.state[pos] = stProposed
			n.pending++
			ctx.Send(v, propMsg)
		case stApproached:
			// The neighbor proposed while we were unadmitted: our PROP
			// completes the mutual pair. Locking keeps pending+locked
			// bounded by the loop condition, so the quota-full REJ
			// broadcast inside lock stays sound (pending is provably 0
			// when the quota fills here, as in proposeNext).
			ctx.Send(v, propMsg)
			n.lock(ctx, v, int32(pos), false)
		default:
			// Pre-resolved by NewNodeRestricted, or resolved by a REJ
			// that arrived before admission.
		}
	}
	if n.quota == 0 {
		// Quota full from the start (possible for restricted residual
		// nodes): reject every unresolved neighbor now, exactly as
		// line 15 fires when Pi\Ki = ∅.
		n.broadcastRejects(ctx)
	}
	n.checkDone(ctx)
}

// HandleMessage implements simnet.Handler.
func (n *Node) HandleMessage(ctx simnet.Context, from int, msg simnet.Message) {
	m, ok := msg.(Msg)
	if !ok {
		panic(fmt.Sprintf("lid: node %d received non-LID message %T", n.id, msg))
	}
	pos, known := n.list.Pos(from)
	if !known {
		panic(fmt.Sprintf("lid: node %d received message from non-neighbor %d", n.id, from))
	}
	st := n.state[pos]
	if m.IsProp {
		n.handleProp(ctx, from, pos, st)
	} else {
		n.handleRej(ctx, from, pos, st)
	}
	n.checkDone(ctx)
}

// handleProp processes a PROP from `from` (Algorithm 1, lines 6, 12–14).
func (n *Node) handleProp(ctx simnet.Context, from graph.NodeID, pos int32, st nstate) {
	switch st {
	case stUntouched:
		n.state[pos] = stApproached // join A; answered later
	case stProposed:
		// Mutual PROP: lock at once (line 12).
		n.lock(ctx, from, pos, true)
	case stWeRejected:
		// Their PROP crossed our quota-full REJ in flight; it is
		// already answered — ignore.
		if len(n.locked) != n.quota {
			panic(fmt.Sprintf("lid: node %d rejected %d without a full quota", n.id, from))
		}
	default:
		// stApproached would be a duplicate PROP; stLocked or
		// stRejectedUs would mean the neighbor kept talking after
		// resolving us. All are protocol violations.
		panic(fmt.Sprintf("lid: node %d got PROP from %d in state %d", n.id, from, st))
	}
}

// handleRej processes a REJ from `from` (Algorithm 1, lines 7–11).
func (n *Node) handleRej(ctx simnet.Context, from graph.NodeID, pos int32, st nstate) {
	switch st {
	case stProposed:
		// Explicit decline of our proposal: resolve and send exactly
		// one replacement proposal (lines 8–11).
		n.state[pos] = stRejectedUs
		n.unresolved--
		n.pending--
		n.proposeNext(ctx)
	case stUntouched:
		// They filled their quota before we ever talked: resolve.
		n.state[pos] = stRejectedUs
		n.unresolved--
	case stWeRejected:
		// Crossing broadcasts: both quotas filled independently and the
		// two REJs passed each other in flight. Already resolved.
		if len(n.locked) != n.quota {
			panic(fmt.Sprintf("lid: node %d rejected %d without a full quota", n.id, from))
		}
	default:
		// A REJ from an approached neighbor is impossible: their
		// outstanding proposal to us keeps their quota open (Pv\Kv ≠ ∅);
		// likewise REJ from a locked neighbor or a second REJ.
		panic(fmt.Sprintf("lid: node %d got REJ from %d in state %d", n.id, from, st))
	}
}

// proposeNext advances the weight-list cursor to the next proposable
// neighbor and proposes (at most one proposal, per lines 9–11).
func (n *Node) proposeNext(ctx simnet.Context) {
	for n.cursor < len(n.list.Order) {
		pos := n.cursor
		v := n.list.Order[pos]
		n.cursor++
		switch n.state[pos] {
		case stUntouched:
			n.state[pos] = stProposed
			n.pending++
			ctx.Send(v, propMsg)
			return
		case stApproached:
			// They already proposed to us: our PROP completes the
			// mutual pair; send it and lock immediately.
			ctx.Send(v, propMsg)
			n.lock(ctx, v, int32(pos), false)
			return
		default:
			// Resolved while waiting; skip.
		}
	}
}

// lock moves `from` into K (line 12–14). fromProposed says whether the
// neighbor was counted in pending (stProposed) or not (stApproached
// being answered by our own proposal).
func (n *Node) lock(ctx simnet.Context, from graph.NodeID, pos int32, fromProposed bool) {
	n.state[pos] = stLocked
	n.unresolved--
	if fromProposed {
		n.pending--
	}
	n.locked = append(n.locked, from)
	if rec := simnet.ObserverOf(ctx); rec != nil {
		rec.Point(n.id, "lid.lock", fmt.Sprintf("peer=%d", from), ctx.Time())
	}
	if len(n.locked) > n.quota {
		panic(fmt.Sprintf("lid: node %d exceeded quota %d", n.id, n.quota))
	}
	if len(n.locked) == n.quota {
		// Quota full (Pi\Ki = ∅, line 15): reject everyone unresolved.
		if n.pending != 0 {
			panic(fmt.Sprintf("lid: node %d full quota with %d outstanding proposals", n.id, n.pending))
		}
		n.broadcastRejects(ctx)
	}
}

// broadcastRejects sends REJ to every still-unresolved neighbor (the
// line-15 broadcast).
func (n *Node) broadcastRejects(ctx simnet.Context) {
	for pos, v := range n.list.Order {
		switch n.state[pos] {
		case stUntouched, stApproached:
			n.state[pos] = stWeRejected
			n.unresolved--
			ctx.Send(v, rejMsg)
		}
	}
}

// checkDone halts the node once every neighbor is resolved (Ui = ∅).
func (n *Node) checkDone(ctx simnet.Context) {
	if n.unresolved == 0 && !n.halted {
		n.halted = true
		// wave == 0 means the node halted before it was ever admitted
		// (deferred admission): there is no open span to close.
		if rec := simnet.ObserverOf(ctx); rec != nil && n.wave != 0 {
			rec.CloseSpan(n.id, n.wave, fmt.Sprintf("locked=%d", len(n.locked)), ctx.Time())
		}
		ctx.Halt()
	}
}

// Halted reports whether the node has locally terminated.
func (n *Node) Halted() bool { return n.halted }

// Locked returns the connections the node established (the set Ki), in
// lock order. The caller must not modify the result.
func (n *Node) Locked() []graph.NodeID { return n.locked }

// LockedWith reports whether this node has locked its connection to v.
func (n *Node) LockedWith(v graph.NodeID) bool {
	pos, ok := n.list.Pos(v)
	return ok && n.state[pos] == stLocked
}

// BuildMatching assembles the global matching from all nodes' locked
// sets through matching.Assemble, which rejects any lock not held at
// both endpoints — the paper's "this will happen in both endpoints" —
// as well as non-neighbor, duplicate and over-quota locks.
func BuildMatching(nodes []*Node) (*matching.Matching, error) {
	if len(nodes) == 0 {
		return matching.NewDense(graph.MustFromEdges(0, nil)), nil
	}
	m, err := matching.Assemble(nodes[0].sys, func(id graph.NodeID) []graph.NodeID { return nodes[id].locked })
	if err != nil {
		return nil, fmt.Errorf("lid: %w", err)
	}
	return m, nil
}
