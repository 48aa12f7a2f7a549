package tournament

import (
	"fmt"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
)

// GaleShapley is a distributed propose/accept contender in the style
// of deferred acceptance, adapted to the symmetric many-to-many
// setting: every node simultaneously proposes down its weight list
// (the same shared eq.-9 order LID uses) and judges incoming
// proposals against its current holdings.
//
// Four message kinds keep the crossings unambiguous. PROP proposes an
// edge; ACC and REJ are the mandatory immediate answer to a PROP
// (every proposal gets exactly one); DROP abandons the edge from the
// sender's side — cancelling a still-outstanding proposal or breaking
// a tentative engagement, the receiver cannot and need not tell which.
//
// Per neighbor a node tracks one of four states plus a pending-answer
// bit (an ACC/REJ we are still owed for our latest PROP):
//
//	free     may (re-)propose: never talked, or the edge died by our
//	         own decline/drop, so reviving it is our business
//	frozen   the edge died by their decline/drop; only they revive it
//	waiting  our PROP is outstanding — a tentative holding
//	engaged  tentatively matched
//
// The two rules that make the outcome exactly stable under the shared
// order (the oracle test checks it coincides with LIC, the unique
// stable matching when every preference follows one total order):
//
//   - Judging counts outstanding proposals as holdings. A full node
//     facing a heavier proposer evicts its lightest holding (DROP),
//     so a decline always certifies "every slot I hold is heavier
//     than you".
//   - Whoever loses ground rescans: a declined proposal or a broken
//     engagement resets the weight-list cursor to 0, and the rescan
//     re-proposes to free neighbors — including those this node
//     itself declined earlier, whose certificate the loss just
//     invalidated. Frozen edges are left to the other side, whose own
//     rescan revives them; this asymmetry is what keeps mutual
//     re-proposal cycles finite.
//
// Unlike LID, engagements are tentative until the run drains and
// convergence takes multiple waves of proposals — the bracket's
// rounds/messages columns quantify the price. The protocol relies on
// per-link FIFO delivery, so Run pins the unit-latency model
// regardless of options.
type GaleShapley struct{}

// Name implements Algorithm.
func (GaleShapley) Name() string { return "gs" }

type gsMsg uint8

const (
	gsPropMsg gsMsg = iota // propose this edge
	gsAccMsg               // answer: accept your proposal
	gsRejMsg               // answer: decline your proposal
	gsDropMsg              // abandon the edge (cancel or break)
)

// Kind implements simnet.Kinder.
func (m gsMsg) Kind() string {
	switch m {
	case gsPropMsg:
		return "PROP"
	case gsAccMsg:
		return "ACC"
	case gsRejMsg:
		return "REJ"
	default:
		return "DROP"
	}
}

type gsState uint8

const (
	gsFree gsState = iota
	gsFrozen
	gsWaiting
	gsEngaged
)

// gsNode is the per-peer state machine; it implements simnet.Handler.
// The layout mirrors lid.Node: the shared read-only weight-list view,
// small per-run state slices indexed by weight-list position.
type gsNode struct {
	id    graph.NodeID
	quota int
	list  satisfaction.WeightList
	state []gsState
	// pending marks edges whose latest PROP of ours has not been
	// answered yet. waiting implies pending; a pending free edge is a
	// cancelled proposal whose stale answer is still in flight (not
	// proposable until it lands), and a pending engaged/frozen edge
	// went through a proposal crossing.
	pending []bool

	cursor      int // next weight-list index the current scan considers
	outstanding int // edges in gsWaiting
	engaged     int // edges in gsEngaged
}

func newGSNode(s *pref.System, tbl *satisfaction.Table, id graph.NodeID) *gsNode {
	list := tbl.WeightList(s, id)
	return &gsNode{
		id:      id,
		quota:   s.Quota(id),
		list:    list,
		state:   make([]gsState, len(list.Order)),
		pending: make([]bool, len(list.Order)),
	}
}

// Init implements simnet.Handler.
func (n *gsNode) Init(ctx simnet.Context) {
	n.proposeMore(ctx)
	n.maybeHalt(ctx)
}

// proposeMore fills the free slots by walking the weight list from the
// cursor: free neighbors without a stale answer in flight are
// (re-)proposed to, holdings are skipped, frozen edges are left to the
// other side.
func (n *gsNode) proposeMore(ctx simnet.Context) {
	for n.outstanding+n.engaged < n.quota && n.cursor < len(n.list.Order) {
		pos := n.cursor
		if n.pending[pos] && n.state[pos] != gsWaiting && n.state[pos] != gsEngaged {
			// A cancelled or broken edge whose stale answer is still
			// in flight: it may become proposable (free) or even
			// engage us (frozen after a crossing break, answered by a
			// fresh ACC) the moment the answer lands — and it is
			// heavier than everything past the cursor. Pause the walk
			// here rather than proposing past it out of weight order;
			// the answer's arrival refills.
			return
		}
		n.cursor++
		if n.state[pos] == gsFree {
			n.state[pos] = gsWaiting
			n.pending[pos] = true
			n.outstanding++
			ctx.Send(n.list.Order[pos], gsPropMsg)
		}
	}
}

// maybeHalt marks the node locally quiescent. Halting is sticky in the
// runner while a later loss can put the node back to work; that is
// fine — the runner only checks that everyone halted once the queue
// drains, and a drained queue means no revival is coming.
func (n *gsNode) maybeHalt(ctx simnet.Context) {
	if n.outstanding == 0 {
		ctx.Halt()
	}
}

// HandleMessage implements simnet.Handler.
func (n *gsNode) HandleMessage(ctx simnet.Context, from int, msg simnet.Message) {
	m, ok := msg.(gsMsg)
	if !ok {
		panic(fmt.Sprintf("tournament: gs node %d received non-GS message %T", n.id, msg))
	}
	pos, known := n.list.Pos(from)
	if !known {
		panic(fmt.Sprintf("tournament: gs node %d received message from non-neighbor %d", n.id, from))
	}
	switch m {
	case gsPropMsg:
		n.handleProp(ctx, from, pos)
	case gsAccMsg:
		n.handleAcc(ctx, from, pos)
	case gsRejMsg:
		n.handleRej(ctx, from, pos)
	case gsDropMsg:
		n.handleDrop(ctx, pos)
	}
	n.maybeHalt(ctx)
}

func (n *gsNode) handleProp(ctx simnet.Context, from graph.NodeID, pos int32) {
	switch n.state[pos] {
	case gsWaiting:
		// Crossing proposals: both sides want the edge — accept
		// unconditionally (it already occupies one of our slots).
		// Their answer to our own PROP is still owed.
		n.state[pos] = gsEngaged
		n.outstanding--
		n.engaged++
		ctx.Send(from, gsAccMsg)
	case gsFree, gsFrozen:
		// Fresh proposal, or a revival from either side's rescan:
		// judge it against the current holdings.
		n.decide(ctx, from, pos)
	default:
		// PROP while engaged is impossible: FIFO delivers the breaking
		// DROP before any re-proposal.
		panic(fmt.Sprintf("tournament: gs node %d got PROP from %d in state %d", n.id, from, n.state[pos]))
	}
}

func (n *gsNode) handleAcc(ctx simnet.Context, from graph.NodeID, pos int32) {
	if !n.pending[pos] {
		panic(fmt.Sprintf("tournament: gs node %d got unsolicited ACC from %d", n.id, from))
	}
	n.pending[pos] = false
	switch n.state[pos] {
	case gsWaiting:
		n.state[pos] = gsEngaged
		n.outstanding--
		n.engaged++
	case gsEngaged:
		// Crossing engagement already formed; the answer just settles
		// the books.
	case gsFrozen:
		// They dropped a crossing engagement, then re-accepted our
		// still-unanswered PROP with a fresh decision: engage — evicting
		// the lightest holding (possibly this very edge) if the slots
		// filled while the answer was in flight.
		n.state[pos] = gsEngaged
		n.engaged++
		if n.outstanding+n.engaged > n.quota {
			n.drop(ctx, int32(n.lightestHolding()))
		}
		n.refill(ctx)
	case gsFree:
		// Stale answer to a proposal we cancelled; our DROP is already
		// on the wire and will break their side. The edge just became
		// proposable again.
		n.revive(ctx, pos)
	}
}

func (n *gsNode) handleRej(ctx simnet.Context, from graph.NodeID, pos int32) {
	if !n.pending[pos] {
		panic(fmt.Sprintf("tournament: gs node %d got unsolicited REJ from %d", n.id, from))
	}
	n.pending[pos] = false
	switch n.state[pos] {
	case gsWaiting:
		// They declined our proposal: theirs to revive. We lost a
		// prospective holding, so our earlier decline certificates may
		// no longer hold — rescan.
		n.state[pos] = gsFrozen
		n.outstanding--
		n.rescan(ctx)
	case gsFree:
		// Stale answer to a cancelled proposal; the books are settled,
		// but the edge is proposable again from here on.
		n.revive(ctx, pos)
	case gsFrozen:
		// Stale answer after a crossing break: the edge stays theirs to
		// revive, but its clearance may unpause the walk — refill.
		n.refill(ctx)
	default:
		// REJ on an engaged edge is impossible: a decliner was not
		// waiting on our PROP's arrival, so it had dropped its own
		// proposal first and FIFO delivers that DROP before the REJ.
		panic(fmt.Sprintf("tournament: gs node %d got REJ from %d in state %d", n.id, from, n.state[pos]))
	}
}

func (n *gsNode) handleDrop(ctx simnet.Context, pos int32) {
	if n.state[pos] == gsEngaged {
		// They broke the engagement for a heavier edge: theirs to
		// revive; we lost ground — rescan.
		n.state[pos] = gsFrozen
		n.engaged--
		n.rescan(ctx)
	}
	// Otherwise the DROP crossed our own decline/drop of the same
	// edge: already dead from our side, nothing to settle.
}

// rescan restarts the weight-list walk after a loss: the heaviest free
// neighbors — including ones we declined under a now-invalid
// certificate — get (re-)proposed to.
func (n *gsNode) rescan(ctx simnet.Context) {
	n.cursor = 0
	n.proposeMore(ctx)
}

// refill rescans only when a slot is open — the cheap variant for
// events that make an edge proposable without costing us a holding.
func (n *gsNode) refill(ctx simnet.Context) {
	if n.outstanding+n.engaged < n.quota {
		n.rescan(ctx)
	}
}

// revive handles an edge that just became proposable again (the stale
// answer to a cancelled proposal landed). If the slots filled with
// lighter holdings while the answer was in flight — a crossing PROP can
// be accepted past a paused walk — holding them while this heavier edge
// goes unproposed would freeze a blocking pair in place: evict the
// lightest and rescan so the revived edge is proposed first.
func (n *gsNode) revive(ctx simnet.Context, pos int32) {
	if n.outstanding+n.engaged < n.quota {
		n.rescan(ctx)
		return
	}
	if lp := n.lightestHolding(); lp >= 0 && int(pos) < lp {
		n.drop(ctx, int32(lp))
		n.rescan(ctx)
	}
}

// decide judges an incoming proposal: accept while a slot is free,
// otherwise evict the lightest holding if the proposer is strictly
// heavier, otherwise decline. The weight list is sorted by descending
// weight, so "heavier" is simply a smaller order position.
func (n *gsNode) decide(ctx simnet.Context, from graph.NodeID, pos int32) {
	if n.outstanding+n.engaged < n.quota {
		n.accept(ctx, from, pos)
		return
	}
	if lp := n.lightestHolding(); lp >= 0 && int(pos) < lp {
		n.drop(ctx, int32(lp))
		n.accept(ctx, from, pos)
		return
	}
	// Decline: ours to revive if a loss invalidates this judgment.
	n.state[pos] = gsFree
	ctx.Send(from, gsRejMsg)
}

// drop evicts the holding at order position lp: break the engagement
// or cancel the outstanding proposal. Either way the edge becomes
// free — we abandoned it, so reviving it is our business (a cancelled
// proposal stays unproposable until its stale answer lands).
func (n *gsNode) drop(ctx simnet.Context, lp int32) {
	switch n.state[lp] {
	case gsEngaged:
		n.engaged--
	case gsWaiting:
		n.outstanding--
	default:
		panic(fmt.Sprintf("tournament: gs node %d dropping non-holding at %d", n.id, lp))
	}
	n.state[lp] = gsFree
	ctx.Send(n.list.Order[lp], gsDropMsg)
}

func (n *gsNode) accept(ctx simnet.Context, from graph.NodeID, pos int32) {
	n.state[pos] = gsEngaged
	n.engaged++
	if n.outstanding+n.engaged > n.quota {
		panic(fmt.Sprintf("tournament: gs node %d exceeded quota %d", n.id, n.quota))
	}
	ctx.Send(from, gsAccMsg)
}

// lightestHolding returns the largest order position currently held
// (waiting or engaged), or -1 when nothing is held.
func (n *gsNode) lightestHolding() int {
	for pos := len(n.state) - 1; pos >= 0; pos-- {
		if st := n.state[pos]; st == gsWaiting || st == gsEngaged {
			return pos
		}
	}
	return -1
}

// engagedWith reports whether this node currently holds an engagement
// with v — the sampler's half of the matched predicate.
func (n *gsNode) engagedWith(v graph.NodeID) bool {
	pos, ok := n.list.Pos(v)
	return ok && n.state[pos] == gsEngaged
}

// buildGSMatching assembles the matching from the engaged sets, which
// must be symmetric exactly as lid.BuildMatching's locks are.
func buildGSMatching(s *pref.System, nodes []*gsNode) (*matching.Matching, error) {
	m, err := matching.Assemble(s, func(id graph.NodeID) []graph.NodeID {
		nd := nodes[id]
		var engaged []graph.NodeID
		for pos, st := range nd.state {
			if st == gsEngaged {
				engaged = append(engaged, nd.list.Order[pos])
			}
		}
		return engaged
	})
	if err != nil {
		return nil, fmt.Errorf("tournament: gs %w", err)
	}
	return m, nil
}

// Run implements Algorithm. The latency model is pinned to unit
// latency: the FSM's crossing rules (stale answers overtaking drops,
// breaks before re-proposals) assume per-link FIFO delivery, which
// the unit-latency event order guarantees. That assumption is also
// why GS declines faulted cells, and cells that stack a layer: the
// reliable transport restores exactly-once delivery after a crash
// window but retransmission can reorder a link's frames, and a
// reordered PROP/ANSWER pair drives the FSM into states its crossing
// rules never anticipate (observed as a PROP arriving at an
// already-engaged position). The faulted bracket therefore runs
// FaultTolerantAlgorithms.
func (GaleShapley) Run(s *pref.System, tbl *satisfaction.Table, opts Options) (stack.Result, error) {
	if !opts.Faults.IsZero() || opts.Stack != (stack.Spec{}) {
		return stack.Result{}, fmt.Errorf("tournament: gs requires per-link FIFO delivery and cannot run under faults or a stacked layer")
	}
	g := s.Graph()
	nodes := make([]*gsNode, g.NumNodes())
	handlers := make([]simnet.Handler, len(nodes))
	for id := range nodes {
		nodes[id] = newGSNode(s, tbl, id)
		handlers[id] = nodes[id]
	}
	return stack.Run(s, tbl, stack.Protocol{
		Handlers: handlers,
		// The sampler's view is mutual engagement, the view E18's GS
		// columns are measured on: an engagement still one-sided holds
		// nothing yet.
		Holds: func(u, v graph.NodeID) bool {
			return nodes[u].engagedWith(v) && nodes[v].engagedWith(u)
		},
		Assemble: func() (*matching.Matching, error) { return buildGSMatching(s, nodes) },
	}, simnet.Event(simnet.Options{
		Seed: opts.Seed,
		// Termination is enforced by the settling argument (the
		// heaviest unsettled edge settles in bounded time); the cap
		// turns a bug into an error instead of a hang.
		MaxDeliveries: 1000*g.NumEdges() + 100_000,
	}), stack.Options{ProbeInterval: opts.interval()})
}
