// Package reliable implements the transport substrate the paper
// implicitly assumes: reliable delivery between neighbors. The paper's
// model (§5) takes lossless asynchronous links as given; real overlay
// links (UDP, unstable TCP peers) drop messages. This package restores
// the assumption on top of a lossy network with the classic
// positive-acknowledgment scheme:
//
//   - every protocol message is wrapped in a sequenced DATA frame;
//   - the receiver acks every DATA frame (including duplicates, since
//     the duplicate means the ack was lost);
//   - the sender retransmits unacked frames on a timer until acked,
//     and stops a frame's pending timer when its ack arrives;
//   - the receiver deduplicates by (sender, seq), so the inner
//     protocol sees exactly-once delivery.
//
// An Endpoint wraps any simnet.Handler; local termination is deferred
// until the inner protocol has halted AND every frame this endpoint
// sent has been acknowledged, so global quiescence still certifies
// protocol termination. Because each ack stops its frame's timer, a
// halted Endpoint has nothing pending either: the run can end when the
// protocol does, not one RTO after its last frame. Experiment E11 runs
// LID through Endpoints over 0–50% loss and checks the outcome still
// equals LIC.
package reliable

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/simnet"
)

// dataMsg is a sequenced frame carrying one inner protocol message.
type dataMsg struct {
	Seq     uint32
	Payload simnet.Message
}

// Kind reports the payload's kind so per-kind statistics keep counting
// protocol messages (retransmissions included — that is the point).
func (m dataMsg) Kind() string { return simnet.KindOf(m.Payload) }

// ackMsg acknowledges one DATA frame.
type ackMsg struct {
	Seq uint32
}

// Kind implements simnet.Kinder.
func (ackMsg) Kind() string { return "ACK" }

// retransmitToken is the Endpoint's private timer token. Its handle
// lets the ack stop the timer, so an acknowledged frame leaves no
// pending work behind.
type retransmitToken struct {
	To    int
	Seq   uint32
	timer *simnet.Timer
}

// TimerHandle implements simnet.StoppableToken.
func (t retransmitToken) TimerHandle() *simnet.Timer { return t.timer }

type frameKey struct {
	to  int
	seq uint32
}

// pendingFrame is an unacknowledged frame: its payload and the stop
// handle of its latest retransmission timer.
type pendingFrame struct {
	payload simnet.Message
	timer   *simnet.Timer
}

// Config parameterizes an Endpoint beyond the classic static-RTO
// scheme. The zero value of the optional fields reproduces the
// original behavior exactly: a constant retransmission timeout with no
// backoff (the experiment goldens depend on it).
type Config struct {
	// RTO is the (initial) retransmission timeout in virtual time
	// units; must be positive and finite.
	RTO float64
	// MaxRetries bounds retransmissions per frame (0 = unlimited).
	// When the budget is exhausted the frame is abandoned, counted
	// per-peer, and the first abandonment toward a peer escalates as
	// a LinkDown upcall to the inner handler (simnet.LinkDownHandler).
	MaxRetries int
	// Adaptive enables RFC-6298-style RTO estimation: SRTT/RTTVAR per
	// peer fed by acknowledged first transmissions (Karn's rule —
	// retransmitted frames never produce samples), plus exponential
	// backoff per retry; the estimate is clamped to [1, 16×RTO] and
	// the backoff capped at 16×RTO. On a runtime without a clock
	// (Context.Time reporting 0) no samples accumulate and the static
	// RTO is used, still with backoff.
	Adaptive bool
}

// Validate checks the config of a stacked layer: RTO finite and
// positive, MaxRetries non-negative. The positive test rejects NaN
// with the rest.
func (c Config) Validate() error {
	if !(c.RTO > 0) || math.IsInf(c.RTO, 1) {
		return fmt.Errorf("reliable: rto=%v must be positive and finite (the retransmission timer would never fire)", c.RTO)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("reliable: max retries %d must be non-negative", c.MaxRetries)
	}
	return nil
}

// Endpoint wraps an inner protocol handler with reliable delivery.
type Endpoint struct {
	inner      simnet.Handler
	cfg        Config
	rto        float64
	maxRetries int // 0 = retry forever

	nextSeq   map[int]uint32
	unacked   map[frameKey]pendingFrame
	attempts  map[frameKey]int
	delivered map[int]map[uint32]bool

	// Adaptive-RTO state (RFC 6298), all per peer.
	sendTime map[frameKey]float64
	srtt     map[int]float64
	rttvar   map[int]float64

	// down marks peers that exhausted their retry budget; cleared on
	// the next arrival from the peer so a later loss burst can
	// escalate again.
	down map[int]bool

	// retxSpans tracks open telemetry spans per retransmit chain (first
	// retransmission opens one, ack or abandonment closes it). Allocated
	// lazily, so runs without a recorder never touch it.
	retxSpans map[frameKey]obs.SpanID

	innerHalted bool
	realHalted  bool
	abandoned   int // frames given up after maxRetries

	// Counters for the experiments.
	frames          int // DATA frames sent, retransmissions included
	acks            int // ACK frames sent
	retransmits     int
	duplicates      int
	corrupted       int // frames discarded as corrupted (failed checksum)
	linkDowns       int // down transitions escalated
	rttSamples      int // RTT samples accepted into the estimator
	abandonedByPeer map[int]int
}

// NewEndpoint wraps inner. rto is the retransmission timeout in
// virtual time units (must exceed the typical round trip to avoid
// spurious retransmissions; correctness does not depend on it).
// maxRetries bounds retransmissions per frame (0 = unlimited, the
// default the paper's model needs).
func NewEndpoint(inner simnet.Handler, rto float64, maxRetries int) *Endpoint {
	return NewEndpointConfig(inner, Config{RTO: rto, MaxRetries: maxRetries})
}

// NewEndpointConfig wraps inner with the full configuration. It
// panics on a config that fails Validate.
func NewEndpointConfig(inner simnet.Handler, cfg Config) *Endpoint {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Endpoint{
		inner:           inner,
		cfg:             cfg,
		rto:             cfg.RTO,
		maxRetries:      cfg.MaxRetries,
		nextSeq:         make(map[int]uint32),
		unacked:         make(map[frameKey]pendingFrame),
		attempts:        make(map[frameKey]int),
		delivered:       make(map[int]map[uint32]bool),
		sendTime:        make(map[frameKey]float64),
		srtt:            make(map[int]float64),
		rttvar:          make(map[int]float64),
		down:            make(map[int]bool),
		abandonedByPeer: make(map[int]int),
	}
}

// Frames returns the number of DATA frames sent, retransmissions
// included.
func (e *Endpoint) Frames() int { return e.frames }

// Acks returns the number of ACK frames sent.
func (e *Endpoint) Acks() int { return e.acks }

// Retransmits returns the number of retransmitted frames.
func (e *Endpoint) Retransmits() int { return e.retransmits }

// Duplicates returns the number of duplicate frames suppressed.
func (e *Endpoint) Duplicates() int { return e.duplicates }

// Abandoned returns the number of frames dropped after maxRetries.
func (e *Endpoint) Abandoned() int { return e.abandoned }

// Corrupted returns the number of frames discarded with a failed
// checksum (simnet.Corrupted deliveries from a fault-injecting link
// policy). A corrupted DATA frame is recovered by the sender's
// retransmission; a corrupted ACK by the duplicate-ack rule.
func (e *Endpoint) Corrupted() int { return e.corrupted }

// LinkDowns returns the number of down transitions this endpoint
// escalated (at most one per silent stretch per peer).
func (e *Endpoint) LinkDowns() int { return e.linkDowns }

// RTTSamples returns how many RTT samples fed the adaptive estimator.
func (e *Endpoint) RTTSamples() int { return e.rttSamples }

// SRTT returns the smoothed round-trip estimate toward peer and
// whether any sample has been accepted.
func (e *Endpoint) SRTT(peer int) (float64, bool) {
	v, ok := e.srtt[peer]
	return v, ok
}

// AbandonedBy returns the frames abandoned toward each peer (only
// peers with at least one abandonment appear). The returned map is the
// endpoint's own bookkeeping; callers must not mutate it.
func (e *Endpoint) AbandonedBy() map[int]int { return e.abandonedByPeer }

// Down reports whether the endpoint currently considers the link to
// peer dead (retry budget exhausted, nothing heard since).
func (e *Endpoint) Down(peer int) bool { return e.down[peer] }

// rtoFor computes the timeout armed for the given transmission attempt
// (1 = first send). The static path is a constant — byte-identical to
// the original scheme; the adaptive path uses SRTT + 4·RTTVAR when
// samples exist, clamped to [1, 16×RTO], doubled per retry.
func (e *Endpoint) rtoFor(to, attempt int) float64 {
	if !e.cfg.Adaptive {
		return e.rto
	}
	const minRTO, maxRTOFactor = 1, 16
	base := e.rto
	if s, ok := e.srtt[to]; ok {
		base = s + 4*e.rttvar[to]
	}
	if base < minRTO {
		base = minRTO
	}
	max := maxRTOFactor * e.rto
	for i := 1; i < attempt && base < max; i++ {
		base *= 2
	}
	if base > max {
		base = max
	}
	return base
}

// observeRTT feeds one sample into the RFC 6298 estimator.
func (e *Endpoint) observeRTT(peer int, sample float64) {
	if sample <= 0 {
		return // clockless runtime (or same-instant ack): no information
	}
	e.rttSamples++
	if _, ok := e.srtt[peer]; !ok {
		e.srtt[peer] = sample
		e.rttvar[peer] = sample / 2
		return
	}
	d := e.srtt[peer] - sample
	if d < 0 {
		d = -d
	}
	e.rttvar[peer] = 0.75*e.rttvar[peer] + 0.25*d
	e.srtt[peer] = 0.875*e.srtt[peer] + 0.125*sample
}

// relCtx is the context handed to the inner protocol: sends become
// sequenced frames, Halt is deferred until all frames are acked.
type relCtx struct {
	e   *Endpoint
	ctx simnet.Context
}

func (c *relCtx) ID() int       { return c.ctx.ID() }
func (c *relCtx) Time() float64 { return c.ctx.Time() }

// Observer forwards the runtime's telemetry recorder (the
// simnet.Observable capability) through the transport wrapper, so the
// inner protocol's spans land in the same causal log as the frames
// carrying them.
func (c *relCtx) Observer() *obs.Recorder { return simnet.ObserverOf(c.ctx) }

func (c *relCtx) Send(to int, msg simnet.Message) {
	e := c.e
	seq := e.nextSeq[to]
	e.nextSeq[to] = seq + 1
	k := frameKey{to: to, seq: seq}
	e.attempts[k] = 1
	if e.cfg.Adaptive {
		e.sendTime[k] = c.ctx.Time()
	}
	e.frames++
	c.ctx.Send(to, dataMsg{Seq: seq, Payload: msg})
	e.arm(c.ctx, k, msg)
}

// arm sets the retransmission timer of frame k for its current
// attempt and records the frame as unacknowledged with that timer's
// stop handle.
func (e *Endpoint) arm(ctx simnet.Context, k frameKey, payload simnet.Message) {
	tok := retransmitToken{To: k.to, Seq: k.seq, timer: new(simnet.Timer)}
	e.unacked[k] = pendingFrame{payload: payload, timer: tok.timer}
	simnet.SetTimerOn(ctx, e.rtoFor(k.to, e.attempts[k]), tok)
}

func (c *relCtx) Halt() {
	c.e.innerHalted = true
	c.e.maybeHalt(c.ctx)
}

// SetTimer passes inner-protocol timers straight through.
func (c *relCtx) SetTimer(delay float64, msg simnet.Message) {
	simnet.SetTimerOn(c.ctx, delay, msg)
}

// retxOpen opens the retransmit-chain span for frame k on its first
// retransmission; later retries extend the same chain. No-op without a
// recorder on the runtime.
func (e *Endpoint) retxOpen(ctx simnet.Context, k frameKey) {
	rec := simnet.ObserverOf(ctx)
	if rec == nil {
		return
	}
	if _, open := e.retxSpans[k]; open {
		return
	}
	if e.retxSpans == nil {
		e.retxSpans = make(map[frameKey]obs.SpanID)
	}
	e.retxSpans[k] = rec.OpenSpan(ctx.ID(), "reliable.retx",
		fmt.Sprintf("to=%d seq=%d", k.to, k.seq), ctx.Time())
}

// retxClose ends frame k's retransmit chain (acked or abandoned), if
// one is open.
func (e *Endpoint) retxClose(ctx simnet.Context, k frameKey, outcome string) {
	id, open := e.retxSpans[k]
	if !open {
		return
	}
	delete(e.retxSpans, k)
	if rec := simnet.ObserverOf(ctx); rec != nil {
		rec.CloseSpan(ctx.ID(), id, outcome, ctx.Time())
	}
}

func (e *Endpoint) maybeHalt(ctx simnet.Context) {
	if e.innerHalted && len(e.unacked) == 0 && !e.realHalted {
		e.realHalted = true
		ctx.Halt()
	}
}

// Init implements simnet.Handler.
func (e *Endpoint) Init(ctx simnet.Context) {
	e.inner.Init(&relCtx{e: e, ctx: ctx})
	e.maybeHalt(ctx)
}

// HandleMessage implements simnet.Handler.
func (e *Endpoint) HandleMessage(ctx simnet.Context, from int, msg simnet.Message) {
	switch m := msg.(type) {
	case retransmitToken:
		if from != ctx.ID() {
			panic(fmt.Sprintf("reliable: retransmit token from foreign node %d", from))
		}
		k := frameKey{to: m.To, seq: m.Seq}
		f, pending := e.unacked[k]
		if !pending {
			// Acked while the timer was already firing: a wall-clock
			// runtime can lose the race between Stop and the delivery.
			return
		}
		if e.maxRetries > 0 && e.attempts[k] > e.maxRetries {
			delete(e.unacked, k)
			delete(e.attempts, k)
			delete(e.sendTime, k)
			e.retxClose(ctx, k, "abandoned")
			e.abandoned++
			e.abandonedByPeer[m.To]++
			if !e.down[m.To] {
				// First abandonment of a silent stretch: escalate. The
				// upcall runs through relCtx so repairs the inner
				// protocol launches are themselves reliably framed.
				e.down[m.To] = true
				e.linkDowns++
				if lh, ok := e.inner.(simnet.LinkDownHandler); ok {
					lh.HandleLinkDown(&relCtx{e: e, ctx: ctx}, m.To)
				}
			}
			e.maybeHalt(ctx)
			return
		}
		e.retxOpen(ctx, k)
		e.attempts[k]++
		e.retransmits++
		e.frames++
		ctx.Send(m.To, dataMsg{Seq: m.Seq, Payload: f.payload})
		e.arm(ctx, k, f.payload)
	case dataMsg:
		delete(e.down, from) // the link is audibly alive again
		// Always ack: a duplicate means our previous ack was lost.
		e.acks++
		ctx.Send(from, ackMsg{Seq: m.Seq})
		seen := e.delivered[from]
		if seen == nil {
			seen = make(map[uint32]bool)
			e.delivered[from] = seen
		}
		if seen[m.Seq] {
			e.duplicates++
			return
		}
		seen[m.Seq] = true
		e.inner.HandleMessage(&relCtx{e: e, ctx: ctx}, from, m.Payload)
		e.maybeHalt(ctx)
	case ackMsg:
		delete(e.down, from)
		k := frameKey{to: from, seq: m.Seq}
		if e.cfg.Adaptive {
			// Karn's rule: only never-retransmitted frames produce RTT
			// samples (a retransmitted frame's ack is ambiguous).
			if e.attempts[k] == 1 {
				e.observeRTT(from, ctx.Time()-e.sendTime[k])
			}
			delete(e.sendTime, k)
		}
		e.unacked[k].timer.Stop() // a nil handle if k was acked before
		delete(e.unacked, k)
		delete(e.attempts, k)
		e.retxClose(ctx, k, "acked")
		e.maybeHalt(ctx)
	case simnet.Corrupted:
		// Failed checksum: discard the whole frame without looking
		// inside. If it was DATA the retransmission timer re-sends it;
		// if it was an ACK the duplicate DATA re-triggers one.
		e.corrupted++
	default:
		// Inner-protocol timer token or other self-delivery.
		e.inner.HandleMessage(&relCtx{e: e, ctx: ctx}, from, msg)
		e.maybeHalt(ctx)
	}
}

// HandleSuspect implements simnet.SuspectHandler by forwarding the
// verdict to the inner handler (when it cares), wrapped in relCtx so
// any repair traffic it triggers is reliably framed. A failure
// detector stacked above the transport (detector.Monitor wrapping an
// Endpoint) therefore composes transparently.
func (e *Endpoint) HandleSuspect(ctx simnet.Context, peer int) {
	if sh, ok := e.inner.(simnet.SuspectHandler); ok {
		sh.HandleSuspect(&relCtx{e: e, ctx: ctx}, peer)
	}
}

// HandleRestore implements simnet.SuspectHandler; see HandleSuspect.
func (e *Endpoint) HandleRestore(ctx simnet.Context, peer int) {
	if sh, ok := e.inner.(simnet.SuspectHandler); ok {
		sh.HandleRestore(&relCtx{e: e, ctx: ctx}, peer)
	}
}

// WrapConfig builds one Endpoint per handler with a shared config.
func WrapConfig(handlers []simnet.Handler, cfg Config) []*Endpoint {
	out := make([]*Endpoint, len(handlers))
	for i, h := range handlers {
		out[i] = NewEndpointConfig(h, cfg)
	}
	return out
}

// Handlers converts endpoints to the simnet.Handler slice.
func Handlers(endpoints []*Endpoint) []simnet.Handler {
	out := make([]simnet.Handler, len(endpoints))
	for i, e := range endpoints {
		out[i] = e
	}
	return out
}

// TotalRetransmits sums retransmissions across endpoints.
func TotalRetransmits(endpoints []*Endpoint) int {
	total := 0
	for _, e := range endpoints {
		total += e.retransmits
	}
	return total
}

// TotalDuplicates sums suppressed duplicates across endpoints.
func TotalDuplicates(endpoints []*Endpoint) int {
	total := 0
	for _, e := range endpoints {
		total += e.duplicates
	}
	return total
}

// TotalAbandoned sums frames given up after maxRetries across
// endpoints.
func TotalAbandoned(endpoints []*Endpoint) int {
	total := 0
	for _, e := range endpoints {
		total += e.abandoned
	}
	return total
}

// TotalCorrupted sums checksum-discarded frames across endpoints.
func TotalCorrupted(endpoints []*Endpoint) int {
	total := 0
	for _, e := range endpoints {
		total += e.corrupted
	}
	return total
}

// TotalLinkDowns sums escalated down transitions across endpoints.
func TotalLinkDowns(endpoints []*Endpoint) int {
	total := 0
	for _, e := range endpoints {
		total += e.linkDowns
	}
	return total
}

// PublishMetrics adds the transport totals of one finished run to reg.
// The per-endpoint int counters stay the source of truth for the
// experiments (single-threaded event runtime, no synchronization
// needed on the hot path); the registry view is for suite-level
// aggregation and the exporters. Nil-safe: a nil registry is a no-op.
func PublishMetrics(reg *metrics.Registry, endpoints []*Endpoint) {
	if reg == nil {
		return
	}
	reg.Counter("reliable_frames_total", "DATA frames sent, retransmissions included").
		Add(int64(sum(endpoints, (*Endpoint).Frames)))
	reg.Counter("reliable_acks_total", "ACK frames sent").
		Add(int64(sum(endpoints, (*Endpoint).Acks)))
	reg.Counter("reliable_retransmits_total", "frames retransmitted after RTO").
		Add(int64(TotalRetransmits(endpoints)))
	reg.Counter("reliable_duplicates_total", "duplicate frames suppressed by receivers").
		Add(int64(TotalDuplicates(endpoints)))
	reg.Counter("reliable_abandoned_total", "frames given up after maxRetries").
		Add(int64(TotalAbandoned(endpoints)))
	reg.Counter("reliable_corrupted_total", "frames discarded with a failed checksum").
		Add(int64(TotalCorrupted(endpoints)))
	reg.Counter("reliable_linkdown_total", "link-death escalations after exhausted retries").
		Add(int64(TotalLinkDowns(endpoints)))
	reg.Counter("reliable_rtt_samples_total", "RTT samples accepted by the adaptive estimator").
		Add(int64(sum(endpoints, (*Endpoint).RTTSamples)))
	// Per-peer abandonment so a single dead link is visible instead of
	// dissolving into the global total (the silent-abandonment fix).
	byPeer := reg.Family("reliable_abandoned_by_peer", "frames given up, by destination peer", "peer")
	for _, e := range endpoints {
		peers := make([]int, 0, len(e.abandonedByPeer))
		for p := range e.abandonedByPeer {
			peers = append(peers, p)
		}
		sort.Ints(peers)
		for _, p := range peers {
			byPeer.With(strconv.Itoa(p)).Add(int64(e.abandonedByPeer[p]))
		}
	}
	// The final smoothed RTT estimates, one observation per (endpoint,
	// peer) with samples — the adaptive-RTO family's distribution view.
	srtt := reg.Histogram("reliable_srtt", "final smoothed RTT estimates per peer link",
		[]float64{1, 2, 5, 10, 20, 50, 100, 200, 500})
	for _, e := range endpoints {
		peers := make([]int, 0, len(e.srtt))
		for p := range e.srtt {
			peers = append(peers, p)
		}
		sort.Ints(peers)
		for _, p := range peers {
			srtt.Observe(e.srtt[p])
		}
	}
}

func sum(endpoints []*Endpoint, f func(*Endpoint) int) int {
	total := 0
	for _, e := range endpoints {
		total += f(e)
	}
	return total
}
