package reliable

import (
	"math"
	"sync"
	"testing"

	"overlaymatch/internal/rng"
	"overlaymatch/internal/simnet"
)

// counterHandler counts deliveries of each payload value. Payloads
// are one-byte simnet.Raw messages, so want is at most 256.
type counterHandler struct {
	mu   sync.Mutex
	got  map[int]int
	want int
	n    int
}

func (h *counterHandler) Init(ctx simnet.Context) {
	if ctx.ID() == 0 {
		for i := 0; i < h.want; i++ {
			ctx.Send(1, simnet.Raw{byte(i)})
		}
		ctx.Halt()
		return
	}
	if h.want == 0 {
		ctx.Halt()
	}
}

func (h *counterHandler) HandleMessage(ctx simnet.Context, from int, msg simnet.Message) {
	h.mu.Lock()
	if h.got == nil {
		h.got = map[int]int{}
	}
	h.got[int(msg.(simnet.Raw)[0])]++
	done := len(h.got) == h.n
	h.mu.Unlock()
	if done {
		ctx.Halt()
	}
}

// uniformLoss is a test link policy dropping every send independently
// with probability p, drawing its coins from its own stream. (The
// standard policy, package faults, imports this package.)
type uniformLoss struct {
	p   float64
	src *rng.Source
}

func (l uniformLoss) Verdict(float64, int, int, simnet.Message) simnet.LinkVerdict {
	return simnet.LinkVerdict{Drop: l.src.Bool(l.p)}
}

// deadLink is a test link policy dropping every send to one node.
type deadLink int

func (d deadLink) Verdict(_ float64, _, to int, _ simnet.Message) simnet.LinkVerdict {
	return simnet.LinkVerdict{Drop: to == int(d)}
}

func TestExactlyOnceUnderHeavyLoss(t *testing.T) {
	const msgs = 100
	sender := &counterHandler{want: msgs}
	receiver := &counterHandler{n: msgs}
	eps := WrapConfig([]simnet.Handler{sender, receiver}, Config{RTO: 5})
	r := simnet.NewRunner(2, simnet.Options{
		Seed:    7,
		Latency: simnet.ExponentialLatency(2),
		Policy:  uniformLoss{p: 0.4, src: rng.New(8)},
	})
	stats, err := r.Run(Handlers(eps))
	if err != nil {
		t.Fatal(err)
	}
	if len(receiver.got) != msgs {
		t.Fatalf("received %d distinct messages, want %d", len(receiver.got), msgs)
	}
	for v, c := range receiver.got {
		if c != 1 {
			t.Fatalf("message %d delivered %d times to the inner protocol", v, c)
		}
	}
	if TotalRetransmits(eps) == 0 {
		t.Fatal("40%% loss but zero retransmissions — loss policy inert?")
	}
	if stats.Dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestNoLossNoRetransmitWithGenerousRTO(t *testing.T) {
	const msgs = 50
	sender := &counterHandler{want: msgs}
	receiver := &counterHandler{n: msgs}
	eps := WrapConfig([]simnet.Handler{sender, receiver}, Config{RTO: 1000})
	r := simnet.NewRunner(2, simnet.Options{Seed: 1})
	if _, err := r.Run(Handlers(eps)); err != nil {
		t.Fatal(err)
	}
	if got := TotalRetransmits(eps); got != 0 {
		t.Fatalf("lossless run retransmitted %d frames", got)
	}
	if got := TotalDuplicates(eps); got != 0 {
		t.Fatalf("lossless run saw %d duplicates", got)
	}
}

func TestSpuriousRetransmitsAreSuppressed(t *testing.T) {
	// An RTO far below the round trip forces spurious retransmissions;
	// the receiver must still deliver exactly once.
	const msgs = 30
	sender := &counterHandler{want: msgs}
	receiver := &counterHandler{n: msgs}
	eps := WrapConfig([]simnet.Handler{sender, receiver}, Config{RTO: 0.1})
	r := simnet.NewRunner(2, simnet.Options{Seed: 2, Latency: simnet.UniformLatency(5, 10)})
	if _, err := r.Run(Handlers(eps)); err != nil {
		t.Fatal(err)
	}
	for v, c := range receiver.got {
		if c != 1 {
			t.Fatalf("message %d delivered %d times", v, c)
		}
	}
	if TotalRetransmits(eps) == 0 {
		t.Fatal("expected spurious retransmissions with rto << rtt")
	}
	if TotalDuplicates(eps) == 0 {
		t.Fatal("expected suppressed duplicates")
	}
}

func TestMaxRetriesAbandons(t *testing.T) {
	// 100% of messages to node 1 dropped via a directional policy;
	// with maxRetries=3 the sender abandons and still halts.
	sender := &counterHandler{want: 5}
	receiver := &counterHandler{n: 0} // halts immediately
	eps := WrapConfig([]simnet.Handler{sender, receiver}, Config{RTO: 2, MaxRetries: 3})
	r := simnet.NewRunner(2, simnet.Options{Seed: 3, Policy: deadLink(1)})
	if _, err := r.Run(Handlers(eps)); err != nil {
		t.Fatal(err)
	}
	if eps[0].Abandoned() != 5 {
		t.Fatalf("abandoned = %d, want 5", eps[0].Abandoned())
	}
}

func TestBadRTOPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEndpoint(&counterHandler{}, 0, 0)
}

// TestConfigValidate: positive tests reject NaN alongside zero and
// negatives, and +Inf is rejected explicitly. NewEndpointConfig panics
// on every config Validate rejects: a NaN RTO once broke the event
// queue's heap order, and its retransmission timer popped forever.
func TestConfigValidate(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"static", Config{RTO: 30}, true},
		{"adaptive bounds", Config{RTO: 30, Adaptive: true, MaxRetries: 3}, true},
		{"zero rto", Config{}, false},
		{"negative rto", Config{RTO: -1}, false},
		{"nan rto", Config{RTO: nan}, false},
		{"inf rto", Config{RTO: inf}, false},
		{"negative retries", Config{RTO: 30, MaxRetries: -1}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.cfg.Validate(); (err == nil) != c.ok {
				t.Fatalf("Validate(%+v) = %v, want ok=%v", c.cfg, err, c.ok)
			}
			if c.ok {
				return
			}
			defer func() {
				if recover() == nil {
					t.Fatalf("NewEndpointConfig accepted %+v", c.cfg)
				}
			}()
			NewEndpointConfig(&counterHandler{}, c.cfg)
		})
	}
}
