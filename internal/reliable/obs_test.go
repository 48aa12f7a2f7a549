package reliable

import (
	"testing"

	"overlaymatch/internal/obs"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/simnet"
)

// TestRetxSpansBalanced: under heavy loss with a telemetry recorder
// attached, every retransmit chain opens exactly one reliable.retx
// span and closes it when the frame is finally acked; no chain leaks
// past termination. Byte accounting must see the framing: every DATA
// frame costs its encoded length, the 4-byte sequence number and the
// nested one-byte Raw frame included, and every ACK frame its own.
func TestRetxSpansBalanced(t *testing.T) {
	const msgs = 60
	sender := &counterHandler{want: msgs}
	receiver := &counterHandler{n: msgs}
	eps := WrapConfig([]simnet.Handler{sender, receiver}, Config{RTO: 5})
	rec := obs.NewRecorder(2)
	r := simnet.NewRunner(2, simnet.Options{
		Seed:    7,
		Latency: simnet.ExponentialLatency(2),
		Policy:  uniformLoss{p: 0.4, src: rng.New(8)},
		Obs:     rec,
	})
	if _, err := r.Run(Handlers(eps)); err != nil {
		t.Fatal(err)
	}
	opens, closes := 0, 0
	for _, e := range rec.Events() {
		switch {
		case e.Type == obs.EvOpen && e.Kind == "reliable.retx":
			opens++
		case e.Type == obs.EvClose:
			closes++
		}
	}
	if opens == 0 {
		t.Fatal("40% loss but no retransmit chains recorded")
	}
	if opens != closes {
		t.Fatalf("retx spans open/close = %d/%d, want balanced", opens, closes)
	}
	for i, e := range eps {
		if len(e.retxSpans) != 0 {
			t.Fatalf("endpoint %d leaked %d open retx spans", i, len(e.retxSpans))
		}
	}
	frames := sum(eps, (*Endpoint).Frames) + sum(eps, (*Endpoint).Acks)
	sent, bytes := r.SentTotals()
	if sent != int64(frames) {
		t.Fatalf("runner counted %d sends, endpoints sent %d frames", sent, frames)
	}
	data, err := simnet.EncodeFrame(dataMsg{Payload: simnet.Raw{0}})
	if err != nil {
		t.Fatal(err)
	}
	ack, err := simnet.EncodeFrame(ackMsg{})
	if err != nil {
		t.Fatal(err)
	}
	want := len(data)*sum(eps, (*Endpoint).Frames) + len(ack)*sum(eps, (*Endpoint).Acks)
	if bytes != int64(want) {
		t.Fatalf("runner counted %d bytes, want %d", bytes, want)
	}
}

// TestRetxSpanAbandonClosed: a dead link with a bounded retry budget
// must close its retransmit chains as abandoned, not leak them.
func TestRetxSpanAbandonClosed(t *testing.T) {
	sender := &counterHandler{want: 5}
	receiver := &counterHandler{n: 0}
	eps := WrapConfig([]simnet.Handler{sender, receiver}, Config{RTO: 2, MaxRetries: 3})
	rec := obs.NewRecorder(2)
	r := simnet.NewRunner(2, simnet.Options{Seed: 3, Policy: deadLink(1), Obs: rec})
	if _, err := r.Run(Handlers(eps)); err != nil {
		t.Fatal(err)
	}
	opens, abandoned := 0, 0
	for _, e := range rec.Events() {
		switch {
		case e.Type == obs.EvOpen && e.Kind == "reliable.retx":
			opens++
		case e.Type == obs.EvClose && e.Detail == "abandoned":
			abandoned++
		}
	}
	if opens != 5 || abandoned != 5 {
		t.Fatalf("retx spans opened/abandoned = %d/%d, want 5/5", opens, abandoned)
	}
	if len(eps[0].retxSpans) != 0 {
		t.Fatal("abandoned chains leaked open spans")
	}
}
