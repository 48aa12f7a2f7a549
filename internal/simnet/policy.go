package simnet

// LinkVerdict is a LinkPolicy's decision for one message in transit.
// The zero value means "deliver normally, exactly once, undamaged".
type LinkVerdict struct {
	// Drop loses the message entirely. The paper's model assumes
	// reliable links; package reliable restores delivery on top of a
	// dropping policy.
	Drop bool
	// Copies is the number of EXTRA deliveries beyond the first
	// (duplication). Each copy draws its own link latency, so copies
	// also reorder against each other.
	Copies int
	// ExtraDelay is added to every copy's drawn latency — the hook for
	// heavy-tailed delay distributions and targeted reordering. Must be
	// >= 0.
	ExtraDelay float64
	// Corrupt replaces the payload with Corrupted{original} before
	// delivery. A transport that checksums frames (package reliable)
	// discards corrupted frames and recovers by retransmission; a bare
	// protocol handler treats one as a protocol violation.
	Corrupt bool
}

// LinkPolicy is the fault-injection hook shared by both runtimes: every
// network send (never timers) is submitted to the policy, and the
// returned verdict is applied by the event queue or, on
// transport.Cluster, by the node's send path. now is the sender's
// virtual time on the event Runner and 0 on a Cluster, which has no
// global clock — time-windowed faults are therefore only meaningful on
// the event runtime.
//
// Implementations must be deterministic functions of their own seeded
// state: they must NOT draw from the runner's latency source, so that a
// zero policy leaves a run bit-identical to no policy at all
// (faults.TestZeroSpecMatchesNilPolicy). The event Runner calls the policy
// from its single scheduler thread; a Cluster serializes calls under a
// cluster-wide mutex, so implementations need no locking of their own.
type LinkPolicy interface {
	Verdict(now float64, from, to int, msg Message) LinkVerdict
}

// Corrupted marks a payload mangled in transit by a LinkPolicy. The
// original message is kept so traces stay readable; transports must
// treat the whole frame as garbage (a failed checksum), not look
// inside.
type Corrupted struct {
	Original Message
}

// Kind implements Kinder.
func (Corrupted) Kind() string { return "CORRUPT" }
