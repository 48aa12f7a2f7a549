package reliable

import (
	"testing"

	"overlaymatch/internal/metrics"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/simnet"
)

// stubCtx is a controllable simnet.Context for driving an Endpoint's
// state machine directly (time set by the test, sends and timers
// recorded and dropped).
type stubCtx struct {
	id     int
	time   float64
	sends  int
	timers int
}

func (c *stubCtx) ID() int                                { return c.id }
func (c *stubCtx) Time() float64                          { return c.time }
func (c *stubCtx) Halt()                                  {}
func (c *stubCtx) Send(to int, msg simnet.Message)        { c.sends++ }
func (c *stubCtx) SetTimer(d float64, msg simnet.Message) { c.timers++ }

// downRecorder is an inner handler implementing the LinkDown upcall.
type downRecorder struct {
	counterHandler
	downs []int
}

func (h *downRecorder) HandleLinkDown(ctx simnet.Context, peer int) {
	h.downs = append(h.downs, peer)
}

func TestAdaptiveRTOEstimation(t *testing.T) {
	inner := &counterHandler{}
	e := NewEndpointConfig(inner, Config{RTO: 100, Adaptive: true, MaxRetries: 2})
	ctx := &stubCtx{id: 0}
	rc := &relCtx{e: e, ctx: ctx}

	// First frame: acked in 4 units -> srtt=4, rttvar=2, rto = 4+4*2.
	rc.Send(1, "a")
	ctx.time = 4
	e.HandleMessage(ctx, 1, ackMsg{Seq: 0})
	if e.RTTSamples() != 1 {
		t.Fatalf("samples = %d, want 1", e.RTTSamples())
	}
	if s, ok := e.SRTT(1); !ok || s != 4 {
		t.Fatalf("srtt = %v,%v, want 4,true", s, ok)
	}
	if got := e.rtoFor(1, 1); got != 12 {
		t.Fatalf("adaptive rto = %v, want srtt+4*rttvar = 12", got)
	}
	// Exponential backoff doubles per retry and caps at MaxRTO (16*RTO).
	if got := e.rtoFor(1, 3); got != 48 {
		t.Fatalf("backed-off rto = %v, want 48", got)
	}
	if got := e.rtoFor(1, 20); got != 1600 {
		t.Fatalf("capped rto = %v, want 1600", got)
	}

	// Karn's rule: a retransmitted frame's ack yields no sample.
	rc.Send(1, "b") // seq 1 at t=4
	e.HandleMessage(ctx, 0, retransmitToken{To: 1, Seq: 1})
	ctx.time = 50
	e.HandleMessage(ctx, 1, ackMsg{Seq: 1})
	if e.RTTSamples() != 1 {
		t.Fatalf("retransmitted frame produced a sample (Karn violated): %d", e.RTTSamples())
	}

	// A peer without samples falls back to the static base, clamped.
	if got := e.rtoFor(7, 1); got != 100 {
		t.Fatalf("no-sample rto = %v, want the static 100", got)
	}
}

func TestLinkDownEscalation(t *testing.T) {
	inner := &downRecorder{}
	e := NewEndpointConfig(inner, Config{RTO: 10, MaxRetries: 2})
	ctx := &stubCtx{id: 0}
	rc := &relCtx{e: e, ctx: ctx}

	exhaust := func(seq uint32) {
		for i := 0; i < 3; i++ {
			e.HandleMessage(ctx, 0, retransmitToken{To: 1, Seq: seq})
		}
	}
	rc.Send(1, "a")
	exhaust(0)
	if e.Abandoned() != 1 || e.AbandonedBy()[1] != 1 {
		t.Fatalf("abandoned=%d byPeer=%v, want 1/map[1:1]", e.Abandoned(), e.AbandonedBy())
	}
	if len(inner.downs) != 1 || inner.downs[0] != 1 || e.LinkDowns() != 1 {
		t.Fatalf("downs = %v (%d), want one for peer 1", inner.downs, e.LinkDowns())
	}
	if !e.Down(1) {
		t.Fatal("peer 1 should be marked down")
	}
	// A second exhausted frame while already down must not re-escalate.
	rc.Send(1, "b")
	exhaust(1)
	if len(inner.downs) != 1 {
		t.Fatalf("re-escalated while down: %v", inner.downs)
	}
	// Hearing from the peer clears down; the next exhaustion escalates
	// again.
	e.HandleMessage(ctx, 1, dataMsg{Seq: 0, Payload: simnet.Raw{42}})
	if e.Down(1) {
		t.Fatal("down not cleared by incoming traffic")
	}
	rc.Send(1, "c")
	exhaust(2)
	if len(inner.downs) != 2 || e.LinkDowns() != 2 {
		t.Fatalf("downs = %v, want a second escalation", inner.downs)
	}
}

// TestLinkDownEndToEnd runs the escalation through the event runtime:
// all frames toward node 1 are dropped, the retry budget expires, and
// the inner handler hears exactly one LinkDown for the dead peer.
func TestLinkDownEndToEnd(t *testing.T) {
	sender := &downRecorder{counterHandler: counterHandler{want: 5}}
	receiver := &counterHandler{n: 0}
	eps := []*Endpoint{
		NewEndpointConfig(sender, Config{RTO: 2, MaxRetries: 3, Adaptive: true}),
		NewEndpointConfig(receiver, Config{RTO: 2, MaxRetries: 3, Adaptive: true}),
	}
	r := simnet.NewRunner(2, simnet.Options{Seed: 3, Policy: deadLink(1)})
	if _, err := r.Run(Handlers(eps)); err != nil {
		t.Fatal(err)
	}
	if eps[0].Abandoned() != 5 || eps[0].AbandonedBy()[1] != 5 {
		t.Fatalf("abandoned %d / byPeer %v, want 5 toward peer 1", eps[0].Abandoned(), eps[0].AbandonedBy())
	}
	if len(sender.downs) != 1 || sender.downs[0] != 1 {
		t.Fatalf("downs = %v, want exactly [1]", sender.downs)
	}
	reg := metrics.New()
	PublishMetrics(reg, eps)
	if got := reg.Counter("reliable_linkdown_total", "").Value(); got != 1 {
		t.Fatalf("linkdown counter = %d, want 1", got)
	}
	if got := reg.Family("reliable_abandoned_by_peer", "", "peer").With("1").Value(); got != 5 {
		t.Fatalf("per-peer abandoned counter = %d, want 5", got)
	}
}

// TestAdaptiveExactlyOnce re-runs the headline loss property through
// the adaptive path: estimation and backoff must not break
// exactly-once delivery.
func TestAdaptiveExactlyOnce(t *testing.T) {
	const msgs = 100
	sender := &counterHandler{want: msgs}
	receiver := &counterHandler{n: msgs}
	eps := WrapConfig([]simnet.Handler{sender, receiver}, Config{RTO: 5, Adaptive: true})
	r := simnet.NewRunner(2, simnet.Options{
		Seed:    7,
		Latency: simnet.ExponentialLatency(2),
		Policy:  uniformLoss{p: 0.4, src: rng.New(8)},
	})
	if _, err := r.Run(Handlers(eps)); err != nil {
		t.Fatal(err)
	}
	if len(receiver.got) != msgs {
		t.Fatalf("received %d distinct messages, want %d", len(receiver.got), msgs)
	}
	for v, c := range receiver.got {
		if c != 1 {
			t.Fatalf("message %d delivered %d times", v, c)
		}
	}
	if eps[0].RTTSamples() == 0 {
		t.Fatal("adaptive endpoint accepted no RTT samples")
	}
}

// suspectRecorder records forwarded suspect/restore upcalls.
type suspectRecorder struct {
	counterHandler
	suspects, restores []int
}

func (h *suspectRecorder) HandleSuspect(ctx simnet.Context, peer int) {
	h.suspects = append(h.suspects, peer)
}
func (h *suspectRecorder) HandleRestore(ctx simnet.Context, peer int) {
	h.restores = append(h.restores, peer)
}

// TestSuspectPassThrough pins the stacking contract: a detector above
// the transport reaches the protocol below it.
func TestSuspectPassThrough(t *testing.T) {
	inner := &suspectRecorder{}
	e := NewEndpoint(inner, 10, 0)
	ctx := &stubCtx{id: 0}
	e.HandleSuspect(ctx, 3)
	e.HandleRestore(ctx, 3)
	if len(inner.suspects) != 1 || inner.suspects[0] != 3 || len(inner.restores) != 1 {
		t.Fatalf("upcalls not forwarded: %v / %v", inner.suspects, inner.restores)
	}
	// An inner handler without the interface is silently fine.
	plain := NewEndpoint(&counterHandler{}, 10, 0)
	plain.HandleSuspect(ctx, 1)
	plain.HandleRestore(ctx, 1)
}
