package simnet

// Timer support. Protocol hardening (proposal timeouts in package
// robust), transport reliability (retransmission in package reliable)
// and failure detection (heartbeat ticks in package detector) all need
// local timers. A timer is delivered back to the node that set it as a
// HandleMessage call with from == the node's own ID and the token as
// the message; timers are local events and are never dropped by the
// link policy.
//
// A timer can be stopped. The stop handle rides on the token, not on
// the Context: a token that carries a *Timer (see StoppableToken) is
// bound to its pending delivery inside SetTimer, so every Context
// wrapper that forwards SetTimer forwards stopping too. A stopped
// timer is gone: it is never delivered, never counted as fired, and
// on the Runner it moves neither the virtual clock nor the probes.
// Stopping is how a layer retires work that can no longer matter, such
// as the retransmission timer of a frame that has been acknowledged,
// so a run does not outlast its protocol by a timeout.
//
// The event Runner implements timers exactly on its virtual clock.
// transport.Cluster maps one virtual time unit to 1ms of real time;
// its timers are wall-clock approximations, which is fine because the
// protocols only use timers for conservative timeouts.

// TimerSetter is implemented by Contexts that support timers. Both
// runtimes do; the interface is separate so simple protocols don't
// need to care.
type TimerSetter interface {
	// SetTimer schedules msg to be delivered to this node itself
	// (from == own ID) after delay virtual time units. delay must be
	// positive. If msg is a StoppableToken, its handle is bound to
	// this delivery.
	SetTimer(delay float64, msg Message)
}

// SetTimerOn sets a timer via ctx, panicking if the runtime does not
// support timers (both built-in runtimes do).
func SetTimerOn(ctx Context, delay float64, msg Message) {
	ts, ok := ctx.(TimerSetter)
	if !ok {
		panic("simnet: context does not support timers")
	}
	ts.SetTimer(delay, msg)
}

// Timer is the stop handle of one armed timer. A protocol that may
// cancel a timer puts a fresh handle in the token it arms — one handle
// per SetTimer call — and keeps the pointer. Like every Context
// operation, Stop belongs to the node's own handler calls.
type Timer struct {
	stop func() bool // bound by the runtime; nil once used or delivered
}

// Stop cancels the timer. It reports whether the call prevented the
// delivery: false if the timer already fired, was already stopped, or
// was never armed. A nil *Timer is a never-armed handle.
func (t *Timer) Stop() bool {
	if t == nil || t.stop == nil {
		return false
	}
	stop := t.stop
	t.stop = nil
	return stop()
}

// Bind attaches a runtime's stop function to the handle; stop must
// report whether it prevented the delivery. Runtimes call Bind from
// SetTimer; protocols never do.
func (t *Timer) Bind(stop func() bool) { t.stop = stop }

// StoppableToken is a timer message that carries a stop handle for
// the runtime to bind.
type StoppableToken interface {
	TimerHandle() *Timer
}

// HandleOf returns the stop handle a timer message carries, or nil.
func HandleOf(msg Message) *Timer {
	if tok, ok := msg.(StoppableToken); ok {
		return tok.TimerHandle()
	}
	return nil
}
