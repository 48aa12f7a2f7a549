// Package robust addresses the paper's future-work question (§7):
// "scenarios where some malicious nodes actively try to disrupt the
// algorithm's execution". Plain LID trusts its neighbors: a peer that
// silently swallows a PROP leaves the proposer waiting forever, and a
// peer that sends protocol-violating sequences trips the strict state
// machine. This package provides
//
//   - TolerantNode: a hardened LID variant. Every proposal carries a
//     local timeout; an unanswered proposal is *revoked* — the
//     proposer sends an explicit REJ, writes the pair off, and moves
//     on. Because the base protocol locks silently on mutual PROPs, a
//     revocation can race a lock; TolerantNode therefore treats locks
//     as revocable: a REJ arriving from a locked neighbor dissolves
//     the lock and frees the quota slot. Unexpected messages are
//     counted, never panicked on.
//   - Adversaries: Crash (silent from the start), CrashAfter (fails
//     mid-protocol), and Spammer (floods PROP followed by REJ to every
//     neighbor).
//
// The proposal timeout is static by default; SetAdaptiveTimeout
// optionally drives it from a phi-accrual estimator over observed
// response times (package detector), with the static value as a hard
// ceiling so adaptation only tightens.
//
// Guarantees and their limits: with honest-but-slow peers, a timeout
// chosen above the latency tail keeps the outcome identical to LIC
// (tested); under adversaries the hardened protocol still terminates,
// ends with symmetric locks and feasible quotas, and honest peers keep
// a measured fraction of the satisfaction they would get in an
// adversary-free overlay (experiment E12). Distinguishing a slow peer
// from a dead one is impossible in a fully asynchronous system, so
// spurious timeouts can cost connections — never consistency.
package robust

import (
	"fmt"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// timeoutToken is the private timer token for proposal timeouts.
type timeoutToken struct {
	To graph.NodeID
}

// adaptiveMinSamples is how many response-time observations the
// estimator needs before the adaptive timeout replaces the static one.
// Below it the variance estimate is dominated by the floor and a single
// latency-tail draw could revoke half the overlay.
const adaptiveMinSamples = 4

// neighbor states. Unlike package lid these admit one extra
// transition: locked -> resolved (revoked lock).
type nstate uint8

const (
	stUntouched nstate = iota
	stProposed
	stApproached
	stLocked
	stResolved // any dead pair: rejected, revoked, or dissolved
)

// TolerantNode is the hardened LID state machine. It implements
// simnet.Handler and requires a timer-capable runtime (both simnet
// runtimes qualify).
type TolerantNode struct {
	id      graph.NodeID
	quota   int
	timeout float64
	// list is the shared weight-list view; state and sentAt are
	// indexed by weight-list position, so the node holds no map.
	list  satisfaction.WeightList
	state []nstate

	cursor     int
	unresolved int
	pending    int
	locked     []graph.NodeID
	halted     bool
	quotaFullB bool // REJ broadcast already sent

	// est, when non-nil, adapts the proposal timeout to observed
	// response times (phi-accrual, see SetAdaptiveTimeout). sentAt
	// remembers when each outstanding proposal left.
	est    *detector.Estimator
	phi    float64
	sentAt []float64

	// Violations counts messages that the strict protocol forbids;
	// adversaries produce them, honest peers never should.
	Violations int
	// Revocations counts proposals this node revoked after timeout.
	Revocations int
	// DissolvedLocks counts locks dissolved by an incoming revocation.
	DissolvedLocks int
	// AdaptiveArms counts proposals whose timer was armed from the
	// estimator rather than the static timeout.
	AdaptiveArms int
}

// NewTolerantNode builds the hardened node for id with the given
// proposal timeout (virtual time units).
func NewTolerantNode(s *pref.System, tbl *satisfaction.Table, id graph.NodeID, timeout float64) *TolerantNode {
	if timeout <= 0 {
		panic("robust: timeout must be positive")
	}
	list := tbl.WeightList(s, id)
	return &TolerantNode{
		id:         id,
		quota:      s.Quota(id),
		timeout:    timeout,
		list:       list,
		state:      make([]nstate, len(list.Order)),
		unresolved: len(list.Order),
	}
}

// SetAdaptiveTimeout attaches a phi-accrual estimator that tightens
// the proposal timeout as response times are observed: once the
// estimator holds enough samples, each new proposal's timer is armed at
// Threshold(phi) instead of the static timeout. The static timeout
// stays a hard ceiling — adaptation only ever tightens, so the
// termination argument of the fixed-timeout protocol carries over
// unchanged, and a nil estimator (the default) leaves the node
// byte-identical to the fixed-timeout one. Response times are only
// meaningful on the event runtime (a transport.Cluster reports
// virtual time 0 everywhere), so on a Cluster the node silently stays
// on the static timeout. Call before Init.
func (n *TolerantNode) SetAdaptiveTimeout(est *detector.Estimator, phi float64) {
	if phi <= 0 {
		panic("robust: phi threshold must be positive")
	}
	n.est = est
	n.phi = phi
	n.sentAt = make([]float64, len(n.list.Order))
}

// proposalTimeout picks the timer value for the next proposal: the
// estimator's threshold when it is armed and tighter than the static
// bound, the static bound otherwise.
func (n *TolerantNode) proposalTimeout() float64 {
	if n.est == nil || n.est.Count() < adaptiveMinSamples {
		return n.timeout
	}
	if to := n.est.Threshold(n.phi); to < n.timeout {
		n.AdaptiveArms++
		return to
	}
	return n.timeout
}

// observeResponse feeds the estimator with the response time of an
// answered proposal. Timed-out proposals are never observed (the
// revocation is not an answer), mirroring Karn's rule in the
// retransmission layer.
func (n *TolerantNode) observeResponse(ctx simnet.Context, pos int32) {
	if n.est == nil {
		return
	}
	if now := ctx.Time(); now > 0 {
		if rt := now - n.sentAt[pos]; rt > 0 {
			n.est.Observe(rt)
		}
	}
}

// Init implements simnet.Handler.
func (n *TolerantNode) Init(ctx simnet.Context) {
	for n.pending+len(n.locked) < n.quota && n.cursor < len(n.list.Order) {
		pos := int32(n.cursor)
		n.cursor++
		n.propose(ctx, pos)
	}
	n.checkDone(ctx)
}

func (n *TolerantNode) propose(ctx simnet.Context, pos int32) {
	v := n.list.Order[pos]
	n.state[pos] = stProposed
	n.pending++
	if n.est != nil {
		n.sentAt[pos] = ctx.Time()
	}
	ctx.Send(v, lid.Msg{IsProp: true})
	simnet.SetTimerOn(ctx, n.proposalTimeout(), timeoutToken{To: v})
}

// HandleMessage implements simnet.Handler.
func (n *TolerantNode) HandleMessage(ctx simnet.Context, from int, msg simnet.Message) {
	if tok, ok := msg.(timeoutToken); ok {
		n.handleTimeout(ctx, tok.To)
		n.checkDone(ctx)
		return
	}
	m, ok := msg.(lid.Msg)
	if !ok {
		n.Violations++
		return
	}
	pos, known := n.list.Pos(from)
	if !known {
		n.Violations++
		return
	}
	if m.IsProp {
		n.handleProp(ctx, pos)
	} else {
		n.handleRej(ctx, pos)
	}
	n.checkDone(ctx)
}

func (n *TolerantNode) handleTimeout(ctx simnet.Context, to graph.NodeID) {
	pos, ok := n.list.Pos(to)
	if !ok || n.state[pos] != stProposed {
		return // answered in time; stale timer
	}
	// Revoke: explicit REJ so an honest slow peer learns the proposal
	// is withdrawn (and dissolves a racing lock).
	n.state[pos] = stResolved
	n.unresolved--
	n.pending--
	n.Revocations++
	// Telemetry: a timeout-driven revocation is the protocol's key
	// robustness decision — worth a point event in the causal log.
	if rec := simnet.ObserverOf(ctx); rec != nil {
		rec.Point(n.id, "robust.revoke", fmt.Sprintf("peer=%d", to), ctx.Time())
	}
	ctx.Send(to, lid.Msg{IsProp: false})
	n.proposeNext(ctx)
}

func (n *TolerantNode) handleProp(ctx simnet.Context, pos int32) {
	switch n.state[pos] {
	case stUntouched:
		n.state[pos] = stApproached
	case stProposed:
		// The mutual PROP answers ours; it doubles as a response-time
		// sample for the adaptive timeout.
		n.observeResponse(ctx, pos)
		n.lock(ctx, pos, true)
	case stResolved:
		// Late PROP crossing our revoke or quota-full REJ: if we never
		// answered this pair with a REJ we would leave an honest peer
		// relying on its own timeout; both revoke and broadcast paths
		// already sent one, so nothing to do.
	case stApproached, stLocked:
		n.Violations++ // duplicate PROP
	}
}

func (n *TolerantNode) handleRej(ctx simnet.Context, pos int32) {
	switch n.state[pos] {
	case stProposed:
		// A rejection is still an answer: it carries the same
		// response-time information as an accepting PROP.
		n.observeResponse(ctx, pos)
		n.state[pos] = stResolved
		n.unresolved--
		n.pending--
		n.proposeNext(ctx)
	case stUntouched:
		n.state[pos] = stResolved
		n.unresolved--
	case stApproached:
		// A revocation of a proposal we had not answered yet.
		n.state[pos] = stResolved
		n.unresolved--
	case stLocked:
		// Revocation racing our silent lock: dissolve it.
		n.dissolve(ctx, pos)
	case stResolved:
		// Crossing REJs; fine.
	}
}

// dissolve removes a revoked lock and tries to reuse the freed slot.
func (n *TolerantNode) dissolve(ctx simnet.Context, pos int32) {
	from := n.list.Order[pos]
	n.state[pos] = stResolved
	for i, v := range n.locked {
		if v == from {
			n.locked = append(n.locked[:i], n.locked[i+1:]...)
			break
		}
	}
	n.DissolvedLocks++
	if rec := simnet.ObserverOf(ctx); rec != nil {
		rec.Point(n.id, "robust.dissolve", fmt.Sprintf("peer=%d", from), ctx.Time())
	}
	// The freed slot can only be refilled if unproposed candidates
	// remain (after a quota-full broadcast there are none).
	if !n.quotaFullB {
		n.proposeNext(ctx)
	}
}

func (n *TolerantNode) proposeNext(ctx simnet.Context) {
	for n.pending+len(n.locked) < n.quota && n.cursor < len(n.list.Order) {
		pos := int32(n.cursor)
		n.cursor++
		switch n.state[pos] {
		case stUntouched:
			n.propose(ctx, pos)
			return
		case stApproached:
			ctx.Send(n.list.Order[pos], lid.Msg{IsProp: true})
			n.lock(ctx, pos, false)
			return
		}
	}
}

func (n *TolerantNode) lock(ctx simnet.Context, pos int32, fromProposed bool) {
	n.state[pos] = stLocked
	n.unresolved--
	if fromProposed {
		n.pending--
	}
	n.locked = append(n.locked, n.list.Order[pos])
	if len(n.locked) > n.quota {
		panic(fmt.Sprintf("robust: node %d exceeded quota", n.id))
	}
	if len(n.locked) == n.quota && !n.quotaFullB {
		n.quotaFullB = true
		for pos, v := range n.list.Order {
			switch n.state[pos] {
			case stUntouched, stApproached:
				n.state[pos] = stResolved
				n.unresolved--
				ctx.Send(v, lid.Msg{IsProp: false})
			case stProposed:
				// Unlike strict LID, pending proposals can coexist
				// with a full quota here (a dissolved lock may have
				// been refilled by an approach while a proposal was in
				// flight is impossible — but a timeout-revoked slot
				// refilled by a mutual lock can leave a pending
				// proposal). Revoke them.
				n.state[pos] = stResolved
				n.unresolved--
				n.pending--
				n.Revocations++
				ctx.Send(v, lid.Msg{IsProp: false})
			}
		}
	}
}

func (n *TolerantNode) checkDone(ctx simnet.Context) {
	if n.unresolved == 0 && !n.halted {
		n.halted = true
		ctx.Halt()
	}
}

// Halted reports local termination.
func (n *TolerantNode) Halted() bool { return n.halted }

// Locked returns the node's current connections.
func (n *TolerantNode) Locked() []graph.NodeID {
	return append([]graph.NodeID(nil), n.locked...)
}

// ID returns the node's identifier.
func (n *TolerantNode) ID() graph.NodeID { return n.id }
