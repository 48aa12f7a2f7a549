// Package obs is the convergence-telemetry plane (DESIGN.md S28): a
// deterministic recorder for message-level causality and protocol
// spans, plus a per-round stability prober backed by metrics.Series.
//
// The paper's guarantees are round-convergence arguments — Lemma 5
// bounds messages, E6 measures rounds — but end-state statistics say
// nothing about the *trajectory*: how fast blocking pairs decay
// (Floréen et al., "Almost stable matchings in constant time"), which
// proposal wave locked which edge, whether a repair epoch stalled on a
// retransmit chain. The Recorder captures that trajectory as a single
// ordered event log with per-node Lamport clocks:
//
//   - Send/Deliver events carry the sender's Lamport stamp across the
//     link, so happens-before is reconstructible offline from the log
//     alone (deliver.lam > send.lam for the matching pair).
//   - Spans bracket protocol phases: LID proposal waves, dlid repair
//     epochs, detector suspicion→restore arcs, reliable retransmit
//     chains. Open/close pairs share a SpanID.
//   - Point events mark instants that have no duration (a lock, a
//     timeout, a revocation).
//
// Exports: NDJSON (one event per line), Chrome trace-event JSON
// (Perfetto-loadable: spans as B/E slices per node track, message
// causality as s/f flow arrows), a nested text span tree, and the
// message-sequence log (one line per delivery). The Recorder is the
// simulator's only delivery stream; both runtimes feed it.
//
// Determinism and cost contract: the Recorder mutates no protocol
// state and reads no RNG, so recorded runs are bit-identical to
// unrecorded ones; on the event runtime the log itself is
// deterministic (deliveries are (time,seq)-ordered), and -workers
// never changes it because workers only parallelize the preference
// table build. Every method is a no-op on a nil *Recorder, so the
// hot paths pay one nil check and zero allocations when telemetry is
// off (enforced by an AllocsPerRun budget in simnet).
package obs

import "sync"

// EventType discriminates recorder events.
type EventType uint8

const (
	// EvSend is a network send; Peer is the destination.
	EvSend EventType = iota
	// EvDeliver is a network delivery; Peer is the source and SendLam
	// the Lamport stamp of the matching send.
	EvDeliver
	// EvOpen opens a span (Span carries its id).
	EvOpen
	// EvClose closes a span (Span matches the EvOpen).
	EvClose
	// EvPoint is an instantaneous annotation.
	EvPoint
)

func (t EventType) String() string {
	switch t {
	case EvSend:
		return "send"
	case EvDeliver:
		return "deliver"
	case EvOpen:
		return "open"
	case EvClose:
		return "close"
	case EvPoint:
		return "point"
	}
	return "?"
}

// SpanID identifies one open/close pair. 0 is never issued.
type SpanID uint64

// Event is one record of the telemetry log.
type Event struct {
	Seq     int // global record order (0-based)
	Type    EventType
	Node    int     // acting node
	Peer    int     // send: destination; deliver: source; else -1
	Kind    string  // message kind, span kind, or point kind
	Detail  string  // optional annotation ("" = none)
	Time    float64 // virtual time (0 on the goroutine runtime)
	Lam     uint64  // Lamport stamp of this event at Node
	SendLam uint64  // deliver only: stamp of the matching send
	Span    SpanID  // open/close only
}

// Recorder accumulates events under a mutex (the goroutine runtime
// records concurrently). A nil *Recorder is valid and every method on
// it is a free no-op — callers thread a possibly-nil recorder through
// unconditionally instead of branching at each site.
type Recorder struct {
	mu       sync.Mutex
	clocks   []uint64 // per-node Lamport clocks
	events   []Event
	nextSpan SpanID
}

// NewRecorder returns a recorder for n nodes (ids 0..n-1).
func NewRecorder(n int) *Recorder {
	if n < 0 {
		panic("obs: negative node count")
	}
	return &Recorder{clocks: make([]uint64, n)}
}

// tick advances node's Lamport clock for a local event. Callers hold mu.
func (r *Recorder) tick(node int) uint64 {
	r.clocks[node]++
	return r.clocks[node]
}

// Send records a network send and returns the Lamport stamp to carry
// on the message; the matching Deliver call feeds it back. Returns 0
// on a nil recorder.
func (r *Recorder) Send(node, to int, kind string, t float64) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	lam := r.tick(node)
	r.events = append(r.events, Event{
		Seq: len(r.events), Type: EvSend, Node: node, Peer: to,
		Kind: kind, Time: t, Lam: lam,
	})
	r.mu.Unlock()
	return lam
}

// Deliver records a delivery at node from peer `from`, merging the
// sender's stamp into node's clock (Lamport receive rule).
func (r *Recorder) Deliver(node, from int, kind string, t float64, sendLam uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if sendLam > r.clocks[node] {
		r.clocks[node] = sendLam
	}
	lam := r.tick(node)
	r.events = append(r.events, Event{
		Seq: len(r.events), Type: EvDeliver, Node: node, Peer: from,
		Kind: kind, Time: t, Lam: lam, SendLam: sendLam,
	})
	r.mu.Unlock()
}

// OpenSpan opens a span of the given kind at node and returns its id
// (0 on a nil recorder; CloseSpan ignores id 0).
func (r *Recorder) OpenSpan(node int, kind, detail string, t float64) SpanID {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	r.nextSpan++
	id := r.nextSpan
	lam := r.tick(node)
	r.events = append(r.events, Event{
		Seq: len(r.events), Type: EvOpen, Node: node, Peer: -1,
		Kind: kind, Detail: detail, Time: t, Lam: lam, Span: id,
	})
	r.mu.Unlock()
	return id
}

// CloseSpan closes a span opened by OpenSpan. Closing id 0 (the nil-
// recorder sentinel) is a no-op, so callers never branch.
func (r *Recorder) CloseSpan(node int, id SpanID, detail string, t float64) {
	if r == nil || id == 0 {
		return
	}
	r.mu.Lock()
	lam := r.tick(node)
	r.events = append(r.events, Event{
		Seq: len(r.events), Type: EvClose, Node: node, Peer: -1,
		Detail: detail, Time: t, Lam: lam, Span: id,
	})
	r.mu.Unlock()
}

// Point records an instantaneous event at node.
func (r *Recorder) Point(node int, kind, detail string, t float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	lam := r.tick(node)
	r.events = append(r.events, Event{
		Seq: len(r.events), Type: EvPoint, Node: node, Peer: -1,
		Kind: kind, Detail: detail, Time: t, Lam: lam,
	})
	r.mu.Unlock()
}

// Len returns the number of recorded events (0 on nil).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Events returns a copy of the log in record order (nil on nil).
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}
