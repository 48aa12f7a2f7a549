// Package simnet is the message-passing substrate the distributed LID
// protocol runs on. The paper's execution model (§5) is a static
// overlay of peers exchanging messages with immediate neighbors over
// reliable asynchronous links. Protocols are written once against
// simnet's Handler and Context interfaces and run on two runtimes:
//
//   - Runner (this package): a deterministic discrete-event simulator.
//     Message latencies are drawn from a seeded source, deliveries are
//     ordered by (time, sequence), and the whole execution is
//     reproducible — the tool the experiment suite uses to sweep
//     thousands of interleavings.
//   - transport.Cluster: the wall-clock concurrent runtime, one
//     goroutine per peer with an unbounded inbox, on loopback sockets
//     or in process. It exercises true parallelism and the Go race
//     detector; results must agree with Runner on every workload
//     (experiment E2).
//
// Termination is structural — a handler calls Context.Halt when its
// protocol finishes locally (Ui = ∅ in LID) — so a run that completes
// certifies global termination rather than timing out.
//
// Every message type has one wire form: its package registers a codec
// (wire.go). A Cluster sends the encoded frames; the Runner passes the
// values but bills each send by its frame's length, so byte counts on
// both runtimes are counts of real encoded bytes.
package simnet

import (
	"fmt"
)

// Message is an opaque protocol payload. Implementations must be
// immutable after sending (they are shared across runtimes and threads).
type Message interface{}

// Handler is a protocol's per-node behaviour. Implementations must be
// self-contained per node: the runtimes guarantee that all calls for
// one node happen sequentially, but calls for different nodes may be
// concurrent (transport.Cluster).
type Handler interface {
	// Init is called once before any delivery; the handler typically
	// sends its opening messages here and may already Halt.
	Init(ctx Context)
	// HandleMessage delivers one message from a neighbor.
	HandleMessage(ctx Context, from int, msg Message)
}

// Context is the per-node view of the runtime, passed to every Handler
// call. It is only valid for the duration of the call.
type Context interface {
	// ID returns the node this call is for.
	ID() int
	// Send queues a message for asynchronous delivery; it never blocks.
	Send(to int, msg Message)
	// Halt marks this node locally terminated. Messages may still
	// arrive afterwards (and are delivered); Halt is idempotent.
	Halt()
	// Time returns the current virtual time (Runner) or 0
	// (transport.Cluster, which has no global clock).
	Time() float64
}

// Stats summarizes one run. The Runner counts into plain per-run
// counters, builds Stats from them, and folds the same numbers into
// its registry (package metrics) when Run returns, so Runner.Metrics
// and any shared sink registry report them too. transport.Cluster
// fills the same fields from its per-node wire counters.
type Stats struct {
	// SentByNode[i] = messages node i sent.
	SentByNode []int
	// ReceivedByNode[i] = messages delivered to node i.
	ReceivedByNode []int
	// SentByKind counts messages by the protocol-reported kind (see
	// KindOf); key "" collects messages with no kind.
	SentByKind map[string]int
	// FinalTime is the virtual time of the last delivery (Runner only).
	FinalTime float64
	// Deliveries is the total number of delivered messages.
	Deliveries int
	// Dropped counts messages dropped by the link policy (on a
	// transport.Cluster, also frames discarded on receipt).
	Dropped int
	// TimersFired counts local timer deliveries.
	TimersFired int
	// TimersStopped counts timers stopped before they fired (see
	// Timer); they were never delivered.
	TimersStopped int
}

// TotalSent returns the total number of messages sent.
func (s Stats) TotalSent() int {
	total := 0
	for _, c := range s.SentByNode {
		total += c
	}
	return total
}

// MaxSentByNode returns the maximum per-node sent count (0 if empty).
func (s Stats) MaxSentByNode() int {
	max := 0
	for _, c := range s.SentByNode {
		if c > max {
			max = c
		}
	}
	return max
}

func (s Stats) String() string {
	return fmt.Sprintf("stats{sent=%d delivered=%d t=%.2f}", s.TotalSent(), s.Deliveries, s.FinalTime)
}

// Kinder lets a Message report a kind label for per-kind accounting.
type Kinder interface {
	Kind() string
}

// KindOf returns msg's kind label, or "".
func KindOf(msg Message) string {
	if k, ok := msg.(Kinder); ok {
		return k.Kind()
	}
	return ""
}
