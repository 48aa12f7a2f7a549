// Package dlid answers the paper's central future-work question (§7):
// "Can the same greedy strategy employed by our algorithm tackle
// [joins/leaves of peers]? We believe so." It implements a fully
// distributed maintenance protocol that keeps an overlay matching
// alive under churn, using the same ingredients as LID — private
// preferences turned into symmetric weights, proposals in weight
// order, only neighbor-to-neighbor messages.
//
// Operation. The overlay starts from the LID/LIC matching. Afterwards
// each peer runs the maintenance state machine and reacts to events:
//
//   - LEAVE: the departing peer sends BYE to every alive graph
//     neighbor and goes silent. Receivers drop the connection if one
//     existed, mark the peer dead, and — having gained capacity —
//     open a new repair epoch: clear their declined-memory and propose
//     (PROP) to their best alive, unconnected, undeclined neighbors,
//     one proposal per free slot.
//   - JOIN: the (re)joining peer resets its state and sends HELLO to
//     every graph neighbor. Alive receivers mark it alive again,
//     answer HELLO-ACK (so the joiner learns its live neighborhood)
//     and, if they have free capacity, may propose to it; the joiner
//     proposes from its own side as ACKs arrive.
//   - PROP is answered immediately and explicitly: ACCEPT if a slot is
//     free or reserved for a crossing proposal to the same peer (the
//     connection forms on both sides; stale answers are idempotent),
//     DECLINE otherwise. A DECLINE advances the proposer to its next
//     candidate; a declined peer is remembered as a *waiter*, and a
//     slot freed by a failed reservation is offered back to waiters —
//     without this, two mutually-declined peers can both end up free,
//     a maximality hole the churn property test caught. When
//     candidates run out the peer idles until some event grants it a
//     new epoch.
//
// Properties (enforced by tests): the system quiesces after every
// finite event schedule; at quiescence the live matching is feasible,
// symmetric, and maximal on the live subgraph (no unmatched live edge
// with free quota at both ends); and all of it degrades gracefully —
// repair quality relative to a fresh LIC recomputation is measured by
// experiment E14. Unlike LID proper, maintenance repair is greedy
// *completion*: it does not preempt existing connections, trading
// optimality for minimal disruption (the centralized analogue, its
// quality yardstick, is the dynamic Engine under
// EngineOptions.CompleteOnly).
//
// The protocol runs on the deterministic event Runner with Quiesce
// mode and injected Schedule commands.
package dlid

import (
	"fmt"
	"sort"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// Command messages injected by the environment (via Runner.Schedule).
type (
	// CmdLeave makes the receiving peer leave the overlay.
	CmdLeave struct{}
	// CmdJoin makes the receiving (dead) peer rejoin.
	CmdJoin struct{}
)

// Wire messages.
type wireKind uint8

const (
	kBye wireKind = iota
	kHello
	kHelloAck
	kProp
	kAccept
	kDecline
	kDrop
)

// Msg is the maintenance wire message. Seq is a per-(sender, receiver)
// monotone counter: Rematch mode discards overtaken messages, turning
// each pair link into a lossy-FIFO channel. Ver is the pair
// *incarnation* version (Rematch only): each PROP draws a fresh
// version from a shared per-pair counter, ACCEPT/DECLINE echo the
// version of the proposal they answer, and DROP names the incarnation
// it revokes. Preemption needs both — a revocation racing the
// messages that formed (or re-form) a connection must be orderable
// against them, or the two views diverge. Complete mode never revokes,
// tolerates reordering by idempotence, and leaves both fields zero
// (keeping its behavior byte-identical).
type Msg struct {
	K   wireKind
	Seq uint32
	Ver uint32
}

// Kind implements simnet.Kinder.
func (m Msg) Kind() string {
	switch m.K {
	case kBye:
		return "BYE"
	case kHello:
		return "HELLO"
	case kHelloAck:
		return "HELLO-ACK"
	case kProp:
		return "PROP"
	case kAccept:
		return "ACCEPT"
	case kDecline:
		return "DECLINE"
	case kDrop:
		return "DROP"
	}
	return fmt.Sprintf("dlid(%d)", m.K)
}

// peer-local view of one neighbor.
type neighborState struct {
	alive     bool
	connected bool
	pending   bool // our PROP outstanding
	declined  bool // declined us in the current epoch
	waiting   bool // we declined them; retry when a reservation frees

	// Pair incarnation versions (Rematch only; all zero in Complete
	// mode). ver is the shared per-pair counter: the highest version
	// seen from the peer or spent on an own proposal. It is never
	// reset — like outSeq — so versions stay comparable across
	// leave/rejoin and suspect/restore cycles. pendVer is the version
	// of the outstanding PROP (valid while pending); connVer the
	// version under which the current connection formed (valid while
	// connected).
	ver     uint32
	pendVer uint32
	connVer uint32
}

// Mode selects the repair discipline.
type Mode uint8

const (
	// Complete is the non-preemptive discipline described in the
	// package comment: existing connections are never dropped for a
	// better candidate, repair only fills free capacity.
	Complete Mode = iota
	// Rematch adds preemption: a full node accepts a better-ranked
	// proposer by DROPping its worst connection, and keeps proposals
	// outstanding to every candidate it prefers over its current
	// partners. Quiescent states are stable b-matchings, which under
	// the symmetric distinct LID weights coincide with the greedy LIC
	// on the live subgraph — the convergence target self-healing needs
	// to reach after a crash window closes. Each preemption replaces
	// edges by a strictly heavier one (on both sides), so the sorted
	// weight multiset of the matching grows lexicographically and the
	// dynamics terminate.
	Rematch
)

// Node is the per-peer maintenance state machine. All per-neighbor
// state is held in slices indexed by weight-list position — a
// neighbor's position doubles as its preference rank — and senders are
// located through the shared CSR index (sorted adjacency + flat
// position table), so a node allocates no maps at all.
type Node struct {
	id    graph.NodeID
	quota int
	mode  Mode
	order []graph.NodeID // weight list (descending); index = rank
	// neighbors is the sorted adjacency, pos the CSR-aligned weight-list
	// position of each adjacency slot (both shared, read-only).
	neighbors []graph.NodeID
	pos       []int32
	state     []neighborState // indexed by weight-list position
	alive     bool

	// Per-pair wire sequencing (see Msg.Seq), indexed by weight-list
	// position. Never reset, not even across leave/rejoin, so
	// receivers' high-water marks stay valid.
	outSeq  []uint32
	lastSeq []uint32

	// Counters for the experiments.
	Proposals   int
	Accepts     int
	Declines    int
	Preemptions int // connections dropped for a better proposer (Rematch)
	SynthByes   int // suspected/dead peers handled as synthesized BYEs
	Resyncs     int // restored peers re-greeted with HELLO
	Epochs      int // repair epochs opened (capacity-gain events)

	// repairSpan is the open telemetry span of the current repair epoch
	// (0 when none, or when no recorder is attached).
	repairSpan obs.SpanID
}

// NewNode builds the maintenance node for id, starting from the given
// initial connections (typically the LID outcome).
func NewNode(s *pref.System, tbl *satisfaction.Table, id graph.NodeID, initial []graph.NodeID) *Node {
	return NewNodeMode(s, tbl, id, initial, Complete)
}

// NewNodeMode is NewNode with an explicit repair discipline.
func NewNodeMode(s *pref.System, tbl *satisfaction.Table, id graph.NodeID, initial []graph.NodeID, mode Mode) *Node {
	order := tbl.SortedNeighbors(s, id)
	n := &Node{
		id:        id,
		quota:     s.Quota(id),
		mode:      mode,
		order:     order,
		neighbors: s.Graph().Neighbors(id),
		pos:       tbl.WeightListPos(s, id),
		state:     make([]neighborState, len(order)),
		alive:     true,
		outSeq:    make([]uint32, len(order)),
		lastSeq:   make([]uint32, len(order)),
	}
	for i := range n.state {
		n.state[i].alive = true
	}
	for _, c := range initial {
		p, ok := n.posOf(c)
		if !ok {
			panic(fmt.Sprintf("dlid: initial connection %d is not a neighbor of %d", c, id))
		}
		n.state[p].connected = true
	}
	return n
}

// posOf locates v's weight-list position through the shared CSR index
// (binary search in the sorted adjacency, then the flat position
// table). Reports false if v is not a neighbor.
func (n *Node) posOf(v graph.NodeID) (int32, bool) {
	i := sort.SearchInts(n.neighbors, v)
	if i >= len(n.neighbors) || n.neighbors[i] != v {
		return 0, false
	}
	return n.pos[i], true
}

// neighborView returns the state record for neighbor v; it panics if v
// is not a neighbor. Package-internal observers (the self-heal harness
// and tests) use it where they used to index the state map.
func (n *Node) neighborView(v graph.NodeID) *neighborState {
	p, ok := n.posOf(v)
	if !ok {
		panic(fmt.Sprintf("dlid: node %d is not a neighbor of %d", v, n.id))
	}
	return &n.state[p]
}

// NewNodes builds all maintenance nodes seeded with matching m.
func NewNodes(s *pref.System, tbl *satisfaction.Table, m *matching.Matching) []*Node {
	return NewNodesMode(s, tbl, m, Complete)
}

// NewNodesMode builds all maintenance nodes with an explicit mode.
func NewNodesMode(s *pref.System, tbl *satisfaction.Table, m *matching.Matching, mode Mode) []*Node {
	nodes := make([]*Node, s.Graph().NumNodes())
	for id := range nodes {
		nodes[id] = NewNodeMode(s, tbl, id, m.Connections(id), mode)
	}
	return nodes
}

// Handlers adapts nodes for the runtime.
func Handlers(nodes []*Node) []simnet.Handler {
	hs := make([]simnet.Handler, len(nodes))
	for i, n := range nodes {
		hs[i] = n
	}
	return hs
}

// Init implements simnet.Handler. The initial matching is assumed
// stable (it is the LID outcome); nothing to do.
func (n *Node) Init(ctx simnet.Context) { ctx.Halt() }

// connectionsHeld counts current connections.
func (n *Node) connectionsHeld() int {
	c := 0
	for i := range n.state {
		if n.state[i].connected {
			c++
		}
	}
	return c
}

// pendingOut counts outstanding proposals.
func (n *Node) pendingOut() int {
	c := 0
	for i := range n.state {
		if n.state[i].pending {
			c++
		}
	}
	return c
}

// freeSlots returns unreserved quota capacity.
func (n *Node) freeSlots() int {
	return n.quota - n.connectionsHeld() - n.pendingOut()
}

// sendMsg stamps the per-pair sequence number and sends an unversioned
// message (node-level kinds, and everything in Complete mode). The
// recipient is addressed by weight-list position.
func (n *Node) sendMsg(ctx simnet.Context, toPos int32, k wireKind) {
	n.sendMsgVer(ctx, toPos, k, 0)
}

// sendMsgVer is sendMsg with an explicit pair incarnation version.
func (n *Node) sendMsgVer(ctx simnet.Context, toPos int32, k wireKind, ver uint32) {
	n.outSeq[toPos]++
	ctx.Send(n.order[toPos], Msg{K: k, Seq: n.outSeq[toPos], Ver: ver})
}

// HandleMessage implements simnet.Handler.
func (n *Node) HandleMessage(ctx simnet.Context, from int, msg simnet.Message) {
	switch msg.(type) {
	case CmdLeave:
		n.leave(ctx)
		return
	case CmdJoin:
		n.join(ctx)
		return
	}
	if !n.alive {
		return // the dead ignore everything
	}
	m, ok := msg.(Msg)
	if !ok {
		panic(fmt.Sprintf("dlid: node %d received %T", n.id, msg))
	}
	p, known := n.posOf(from)
	if !known {
		panic(fmt.Sprintf("dlid: node %d received message from non-neighbor %d", n.id, from))
	}
	ns := &n.state[p]
	if n.mode == Rematch && m.Seq != 0 {
		// Enforce lossy-FIFO per pair: a message overtaken by a newer
		// one from the same sender is superseded state — discard it.
		if m.Seq <= n.lastSeq[p] {
			return
		}
		n.lastSeq[p] = m.Seq
		// Merge the pair version counter so fresh proposals always draw
		// versions above everything either side has used.
		if m.Ver > ns.ver {
			ns.ver = m.Ver
		}
	}
	switch m.K {
	case kBye:
		n.onBye(ctx, p)
	case kHello:
		n.onHello(ctx, p)
	case kHelloAck:
		n.onHelloAck(ctx, p)
	case kProp:
		n.onProp(ctx, p, m.Ver)
	case kAccept:
		n.onAccept(ctx, p, m.Ver)
	case kDecline:
		n.onDecline(ctx, p, m.Ver)
	case kDrop:
		n.onDrop(ctx, p, m.Ver)
	}
	n.noteRepair(ctx)
}

// HandleSuspect implements simnet.SuspectHandler: a failure detector
// stacked above the node suspects peer. The verdict is handled as a
// synthesized BYE — same state transition a voluntary leave causes,
// including the repair epoch when a connection was freed.
func (n *Node) HandleSuspect(ctx simnet.Context, peer int) {
	n.peerDown(ctx, peer)
}

// HandleLinkDown implements simnet.LinkDownHandler: the transport
// exhausted its retry budget toward peer. Same synthesized-BYE path as
// a detector suspicion.
func (n *Node) HandleLinkDown(ctx simnet.Context, peer int) {
	n.peerDown(ctx, peer)
}

func (n *Node) peerDown(ctx simnet.Context, peer graph.NodeID) {
	if !n.alive {
		return
	}
	p, ok := n.posOf(peer)
	if !ok || !n.state[p].alive {
		return // not a neighbor, or already mourned
	}
	n.SynthByes++
	n.onBye(ctx, p)
	n.noteRepair(ctx)
}

// HandleRestore implements simnet.SuspectHandler: a previously
// suspected peer is audibly alive again. The pair state may have
// diverged arbitrarily during the outage (the peer may still believe
// an old connection exists, or may have been falsely suspected and
// never noticed anything), so recovery is a full re-greeting: reset
// the local view and send HELLO, exactly as if the peer had rejoined.
// The peer's onHello resets its own view symmetrically and answers
// HELLO-ACK, after which both sides propose afresh.
func (n *Node) HandleRestore(ctx simnet.Context, peer int) {
	if !n.alive {
		return
	}
	p, ok := n.posOf(peer)
	if !ok || n.state[p].alive {
		return // not a neighbor, or never mourned (no resync needed)
	}
	ns := &n.state[p]
	n.Resyncs++
	ns.connected = false
	ns.pending = false
	ns.declined = false
	ns.waiting = false
	n.sendMsg(ctx, p, kHello)
}

// leave processes a CmdLeave.
func (n *Node) leave(ctx simnet.Context) {
	if !n.alive {
		panic(fmt.Sprintf("dlid: CmdLeave to dead node %d", n.id))
	}
	n.alive = false
	if n.repairSpan != 0 {
		if rec := simnet.ObserverOf(ctx); rec != nil {
			rec.CloseSpan(n.id, n.repairSpan, "left", ctx.Time())
		}
		n.repairSpan = 0
	}
	for i := range n.order { // weight-list order: deterministic
		ns := &n.state[i]
		if ns.alive {
			n.sendMsg(ctx, int32(i), kBye)
		}
		// Reset the local view; it is rebuilt on rejoin.
		ns.connected = false
		ns.pending = false
		ns.declined = false
		ns.waiting = false
	}
}

// join processes a CmdJoin.
func (n *Node) join(ctx simnet.Context) {
	if n.alive {
		panic(fmt.Sprintf("dlid: CmdJoin to alive node %d", n.id))
	}
	n.alive = true
	for i := range n.order { // weight-list order: deterministic
		ns := &n.state[i]
		// Optimistically greet everyone; dead neighbors ignore it. The
		// alive view is rebuilt from HELLO-ACKs.
		ns.alive = false
		ns.connected = false
		ns.pending = false
		ns.declined = false
		ns.waiting = false
		n.sendMsg(ctx, int32(i), kHello)
	}
}

// onBye: the neighbor left.
func (n *Node) onBye(ctx simnet.Context, p int32) {
	ns := &n.state[p]
	freed := ns.connected
	hadPending := ns.pending
	ns.alive = false
	ns.connected = false
	ns.pending = false
	ns.declined = false
	ns.waiting = false
	if freed {
		// Capacity gained: new repair epoch.
		n.newEpoch(ctx)
		return
	}
	if hadPending {
		// Our reservation evaporated; the freed slot must also serve
		// peers we declined while it was reserved.
		n.proposeMore(ctx)
	}
}

// onHello: the neighbor (re)joined, or re-greets after a suspected
// outage (HandleRestore). The reset may free a connection we still
// believed in — one-sided suspicion leaves exactly that asymmetry —
// in which case the regained capacity opens a full repair epoch.
func (n *Node) onHello(ctx simnet.Context, p int32) {
	ns := &n.state[p]
	freed := ns.connected
	ns.alive = true
	ns.connected = false
	ns.pending = false
	ns.declined = false
	ns.waiting = false
	n.sendMsg(ctx, p, kHelloAck)
	if freed {
		n.newEpoch(ctx)
		return
	}
	// A fresh candidate appeared; try to use spare capacity on it.
	n.proposeMore(ctx)
}

// onHelloAck: our HELLO was answered; the sender is alive.
func (n *Node) onHelloAck(ctx simnet.Context, p int32) {
	n.state[p].alive = true
	n.proposeMore(ctx)
}

// onProp: answer immediately and explicitly. There is deliberately no
// silent crossing-lock (unlike static LID): under churn a peer's
// pending flag can be stale — its proposal may already have been
// declined by a message still in flight — so the only safe rule is
// that every connection is confirmed by an explicit ACCEPT in at
// least one direction, and ACCEPTs for already-connected pairs are
// idempotent.
func (n *Node) onProp(ctx simnet.Context, fromPos int32, p uint32) {
	ns := &n.state[fromPos]
	ns.alive = true
	if ns.connected {
		if n.mode == Rematch && p < ns.connVer {
			// The proposal predates our current connection incarnation
			// (it was resolved at the sender by the crossing that formed
			// it); answering would revive a dead conversation.
			return
		}
		// Duplicate/stale proposal for an existing connection — or, with
		// p > connVer, a fresh proposal from a peer that no longer
		// believes in the incarnation we hold (its DROP is in flight and
		// will arrive overtaken). Confirm under the newest version.
		if p > ns.connVer {
			ns.connVer = p
		}
		n.sendMsgVer(ctx, fromPos, kAccept, p)
		return
	}
	if ns.pending {
		// Crossing proposals: accept, consuming the slot we reserved
		// for our own proposal to the same peer. Both sides compute the
		// same incarnation, max(ours, theirs), regardless of delivery
		// order. Whatever answer our own proposal gets (their symmetric
		// accept, or a stale decline) is idempotent against the
		// connected state.
		ns.pending = false
		ns.connected = true
		ns.connVer = ns.pendVer
		if p > ns.connVer {
			ns.connVer = p
		}
		n.Accepts++
		n.sendMsgVer(ctx, fromPos, kAccept, p)
		if n.mode == Rematch {
			n.enforceQuota(ctx)
			n.proposeMore(ctx)
		}
		return
	}
	if n.mode == Rematch {
		// Preemptive discipline: a held slot is never safe from a
		// better proposer. Reservations (pendingOut) are ignored here —
		// a crossing accept can transiently push past quota, which
		// enforceQuota repairs by dropping the worst connection.
		if n.connectionsHeld() < n.quota {
			ns.connected = true
			ns.connVer = p
			n.Accepts++
			n.sendMsgVer(ctx, fromPos, kAccept, p)
			return
		}
		if worstPos, ok := n.worstConnected(); ok && fromPos < worstPos {
			n.dropConnection(ctx, worstPos)
			ns.connected = true
			ns.connVer = p
			n.Accepts++
			n.sendMsgVer(ctx, fromPos, kAccept, p)
			return
		}
		n.Declines++
		ns.waiting = true
		n.sendMsgVer(ctx, fromPos, kDecline, p)
		return
	}
	if n.quota-n.connectionsHeld()-n.pendingOut() > 0 {
		ns.connected = true
		n.Accepts++
		n.sendMsgVer(ctx, fromPos, kAccept, p)
		return
	}
	n.Declines++
	// Remember the asker: if a reservation of ours later falls
	// through, the freed slot must be offered back (otherwise two
	// mutually-declined peers can both end up free — a maximality
	// hole).
	ns.waiting = true
	n.sendMsgVer(ctx, fromPos, kDecline, p)
}

// onAccept: our proposal succeeded.
func (n *Node) onAccept(ctx simnet.Context, p int32, v uint32) {
	ns := &n.state[p]
	if ns.connected {
		if v > ns.connVer {
			ns.connVer = v // late confirmation of a newer incarnation
		}
		return // already established by a crossing accept
	}
	if ns.pending {
		if v < ns.pendVer {
			// Answers a proposal that was already resolved locally; the
			// live proposal's own answer (or our in-flight PROP, which
			// the peer will confirm under the newer version) is still
			// coming — nothing to do yet.
			return
		}
		ns.pending = false
		ns.connected = true
		ns.connVer = v
		if n.mode == Rematch {
			// Crossing accepts can overfill the quota; shed the worst.
			n.enforceQuota(ctx)
			// The resolved reservation (and any shed connection) changes
			// the rank-budget walk: candidates it was hiding — a blocking
			// edge in waiting — must be proposed to now.
			n.proposeMore(ctx)
		}
		return
	}
	if n.mode == Rematch {
		// An ACCEPT for an incarnation we have no context for: our
		// pending state was resolved by a concurrent DROP or reset, so
		// the sender now believes in a connection we do not. Ignoring it
		// (the Complete-mode rule) would freeze that asymmetry — revoke
		// exactly that incarnation instead. If the peer has since moved
		// to a newer one, the version makes our revocation a no-op.
		n.sendMsgVer(ctx, p, kDrop, v)
	}
	// Stale ACCEPT (e.g. confirmation of an old state); ignore.
}

// onDrop: the neighbor preempted our connection for a better
// proposer (Rematch mode). Losing the slot frees capacity, so a new
// epoch opens — but the dropper just proved it is full with peers it
// prefers over us, so it is marked declined for this epoch to avoid a
// pointless immediate re-proposal.
func (n *Node) onDrop(ctx simnet.Context, p int32, v uint32) {
	ns := &n.state[p]
	if ns.pending {
		if v < ns.pendVer {
			// Revokes an incarnation older than our live proposal (a
			// crossing DROP of the connection we already tore down
			// ourselves). The peer had not seen our PROP when it sent
			// this, so the proposal's real answer is still in flight.
			return
		}
		// The peer accepted our proposal (forming incarnation >= pendVer)
		// and revoked it before the ACCEPT arrived; the ACCEPT was
		// overtaken and discarded. Net effect of the accept-then-revoke
		// pair is a decline.
		ns.pending = false
		ns.declined = true
		n.proposeMore(ctx)
		return
	}
	if !ns.connected {
		return // stale (e.g. we already processed its BYE)
	}
	if v < ns.connVer {
		return // revokes an incarnation we have since replaced
	}
	ns.connected = false
	for i := range n.state {
		n.state[i].declined = false
	}
	ns.declined = true
	n.proposeMore(ctx)
}

// onDecline: advance to the next candidate.
func (n *Node) onDecline(ctx simnet.Context, p int32, v uint32) {
	ns := &n.state[p]
	if !ns.pending || v != ns.pendVer {
		return // stale, or answers an older proposal than the live one
	}
	ns.pending = false
	ns.declined = true
	n.proposeMore(ctx)
}

// newEpoch clears declined memory and proposes afresh.
func (n *Node) newEpoch(ctx simnet.Context) {
	n.Epochs++
	if rec := simnet.ObserverOf(ctx); rec != nil {
		// A new capacity gain supersedes the running repair epoch: close
		// its span and open the next. Spans still open at run end mark
		// repairs unsettled at quiescence (there should be none).
		if n.repairSpan != 0 {
			rec.CloseSpan(n.id, n.repairSpan, "superseded", ctx.Time())
		}
		n.repairSpan = rec.OpenSpan(n.id, "dlid.repair",
			fmt.Sprintf("epoch=%d", n.Epochs), ctx.Time())
	}
	for i := range n.state {
		n.state[i].declined = false
	}
	n.proposeMore(ctx)
}

// noteRepair closes the open repair-epoch span once the node has no
// outstanding proposals (the epoch locally settled). The state scan
// only runs while a span is open, so runs without a recorder never pay
// for it.
func (n *Node) noteRepair(ctx simnet.Context) {
	if n.repairSpan == 0 {
		return
	}
	for i := range n.state {
		if n.state[i].pending {
			return
		}
	}
	if rec := simnet.ObserverOf(ctx); rec != nil {
		rec.CloseSpan(n.id, n.repairSpan, "settled", ctx.Time())
	}
	n.repairSpan = 0
}

// proposeMore sends one PROP per free slot to the best eligible
// candidates (alive, not connected, no proposal outstanding, not
// declined this epoch), in weight order. In Rematch mode the budget
// is rank-based instead: the node keeps a proposal outstanding to
// every candidate it prefers over the partners filling its quota, so
// a blocking edge (both ends prefer each other over someone they
// hold) is always attacked from at least one side.
func (n *Node) proposeMore(ctx simnet.Context) {
	if n.mode == Rematch {
		n.proposeRematch(ctx)
		return
	}
	free := n.freeSlots()
	if free <= 0 {
		return
	}
	for i := 0; i < len(n.order) && free > 0; i++ {
		ns := &n.state[i]
		// A declined candidate is retried only if it asked us since (we
		// owe the freed capacity to waiters); otherwise skip until an
		// epoch clears the flag.
		if !ns.alive || ns.connected || ns.pending || (ns.declined && !ns.waiting) {
			continue
		}
		ns.pending = true
		ns.waiting = false
		n.Proposals++
		n.sendMsg(ctx, int32(i), kProp)
		free--
	}
}

// proposeRematch walks the weight list spending a budget of quota
// slots: held connections and outstanding proposals consume budget in
// rank order, and every better-ranked alive candidate not yet tried
// this epoch gets a proposal. Unlike the Complete rule this proposes
// even when the quota is full — acceptance there preempts the worst.
func (n *Node) proposeRematch(ctx simnet.Context) {
	budget := n.quota
	for i := 0; i < len(n.order) && budget > 0; i++ {
		ns := &n.state[i]
		if ns.connected || ns.pending {
			budget--
			continue
		}
		if !ns.alive || (ns.declined && !ns.waiting) {
			continue
		}
		ns.pending = true
		ns.waiting = false
		ns.ver++
		ns.pendVer = ns.ver
		n.Proposals++
		n.sendMsgVer(ctx, int32(i), kProp, ns.pendVer)
		budget--
	}
}

// worstConnected returns the weight-list position of the
// lowest-ranked current connection.
func (n *Node) worstConnected() (int32, bool) {
	for i := len(n.state) - 1; i >= 0; i-- {
		if n.state[i].connected {
			return int32(i), true
		}
	}
	return 0, false
}

// dropConnection preempts the connection to nb, notifying it. The DROP
// names the revoked incarnation so a crossing re-formation under a
// newer version is immune to it.
func (n *Node) dropConnection(ctx simnet.Context, p int32) {
	ns := &n.state[p]
	ns.connected = false
	n.Preemptions++
	n.sendMsgVer(ctx, p, kDrop, ns.connVer)
}

// enforceQuota sheds worst connections until the quota holds again
// (crossing accepts in Rematch mode can transiently overfill it).
func (n *Node) enforceQuota(ctx simnet.Context) {
	for n.connectionsHeld() > n.quota {
		worst, ok := n.worstConnected()
		if !ok {
			return
		}
		n.dropConnection(ctx, worst)
	}
}

// Alive reports whether the node is currently in the overlay.
func (n *Node) Alive() bool { return n.alive }

// Connections returns the node's current connections.
func (n *Node) Connections() []graph.NodeID {
	var out []graph.NodeID
	for i, nb := range n.order {
		if n.state[i].connected {
			out = append(out, nb)
		}
	}
	return out
}
