package reliable

import (
	"sync"
	"testing"
	"testing/quick"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
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

func TestExactlyOnceUnderHeavyLoss(t *testing.T) {
	const msgs = 100
	sender := &counterHandler{want: msgs}
	receiver := &counterHandler{n: msgs}
	eps := Wrap([]simnet.Handler{sender, receiver}, 5, 0)
	r := simnet.NewRunner(2, simnet.Options{
		Seed:    7,
		Drop:    simnet.UniformDrop(0.4),
		Latency: simnet.ExponentialLatency(2),
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
		t.Fatal("40%% loss but zero retransmissions — loss model inert?")
	}
	if stats.Dropped == 0 {
		t.Fatal("no drops recorded")
	}
}

func TestNoLossNoRetransmitWithGenerousRTO(t *testing.T) {
	const msgs = 50
	sender := &counterHandler{want: msgs}
	receiver := &counterHandler{n: msgs}
	eps := Wrap([]simnet.Handler{sender, receiver}, 1000, 0)
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

// TestAckStopsRetransmitTimer: on a lossless network whose round trip
// is shorter than the RTO, every ack arrives first and stops its
// frame's timer, so LID under reliable fires no timer at all and the
// run ends at its last protocol delivery, not one RTO later.
func TestAckStopsRetransmitTimer(t *testing.T) {
	src := rng.New(4)
	g := gen.GNP(src, 20, 0.35)
	sys, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTable(sys)
	nodes := lid.NewNodes(sys, tbl)
	const rto = 30
	eps := Wrap(lid.Handlers(nodes), rto, 0)
	stats, err := simnet.NewRunner(g.NumNodes(), simnet.Options{Seed: 4}).Run(Handlers(eps))
	if err != nil {
		t.Fatal(err)
	}
	frames := sum(eps, (*Endpoint).Frames)
	if stats.TimersFired != 0 || stats.TimersStopped != frames {
		t.Fatalf("%d timers fired, %d stopped for %d frames; want 0 fired, one stopped per frame",
			stats.TimersFired, stats.TimersStopped, frames)
	}
	if stats.FinalTime >= rto {
		t.Fatalf("run ended at %v: a retransmission timer outlived its ack", stats.FinalTime)
	}
	m, err := lid.BuildMatching(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(matching.LIC(sys, tbl)) {
		t.Fatal("LID under reliable diverged from LIC")
	}
}

func TestSpuriousRetransmitsAreSuppressed(t *testing.T) {
	// An RTO far below the round trip forces spurious retransmissions;
	// the receiver must still deliver exactly once.
	const msgs = 30
	sender := &counterHandler{want: msgs}
	receiver := &counterHandler{n: msgs}
	eps := Wrap([]simnet.Handler{sender, receiver}, 0.1, 0)
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
	// 100% of messages to node 1 dropped via a directional drop func;
	// with maxRetries=3 the sender abandons and still halts.
	sender := &counterHandler{want: 5}
	receiver := &counterHandler{n: 0} // halts immediately
	eps := Wrap([]simnet.Handler{sender, receiver}, 2, 3)
	r := simnet.NewRunner(2, simnet.Options{
		Seed: 3,
		Drop: func(from, to int, _ *rng.Source) bool { return to == 1 },
	})
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

// lidOverLossySystem builds a workload and runs LID through reliable
// endpoints over a lossy network.
func lidOverLossy(tb testing.TB, seed uint64, n int, dropP float64) (*matching.Matching, *pref.System, []*Endpoint, simnet.Stats) {
	tb.Helper()
	src := rng.New(seed)
	g := gen.GNP(src, n, 0.35)
	sys, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		tb.Fatal(err)
	}
	tbl := satisfaction.NewTable(sys)
	nodes := lid.NewNodes(sys, tbl)
	eps := Wrap(lid.Handlers(nodes), 25, 0)
	r := simnet.NewRunner(g.NumNodes(), simnet.Options{
		Seed:    seed*2654435761 + 1,
		Drop:    simnet.UniformDrop(dropP),
		Latency: simnet.ExponentialLatency(3),
	})
	stats, err := r.Run(Handlers(eps))
	if err != nil {
		tb.Fatalf("LID over lossy network failed: %v", err)
	}
	m, err := lid.BuildMatching(nodes)
	if err != nil {
		tb.Fatal(err)
	}
	return m, sys, eps, stats
}

// TestLIDOverLossyEqualsLIC is the substrate's headline property: with
// the reliability layer underneath, LID on a lossy network still
// produces exactly the LIC matching (the paper's reliable-link
// assumption is restored).
func TestLIDOverLossyEqualsLIC(t *testing.T) {
	check := func(seed uint64, nRaw uint8, dropRaw uint8) bool {
		n := int(nRaw)%15 + 5
		dropP := float64(dropRaw%50) / 100.0
		m, sys, _, _ := lidOverLossy(t, seed, n, dropP)
		return m.Equal(matching.LIC(sys, satisfaction.NewTable(sys)))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPublishMetrics(t *testing.T) {
	_, _, eps, stats := lidOverLossy(t, 11, 20, 0.3)
	reg := metrics.New()
	PublishMetrics(reg, eps)
	PublishMetrics(nil, eps) // nil sink must be a no-op, not a panic

	counter := func(name string) int { return int(reg.Counter(name, "").Value()) }
	if counter("reliable_retransmits_total") != TotalRetransmits(eps) {
		t.Fatal("retransmit counter disagrees with endpoint view")
	}
	if counter("reliable_duplicates_total") != TotalDuplicates(eps) {
		t.Fatal("duplicate counter disagrees with endpoint view")
	}
	if counter("reliable_abandoned_total") != TotalAbandoned(eps) {
		t.Fatal("abandoned counter disagrees with endpoint view")
	}
	// Every DATA frame and every ACK the endpoints sent went through
	// simnet (drops happen after send), so the frame/ack totals must
	// equal the per-kind send counts.
	if counter("reliable_acks_total") != stats.SentByKind["ACK"] {
		t.Fatalf("acks: registry %d, simnet %d",
			counter("reliable_acks_total"), stats.SentByKind["ACK"])
	}
	wantFrames := stats.TotalSent() - stats.SentByKind["ACK"]
	if counter("reliable_frames_total") != wantFrames {
		t.Fatalf("frames: registry %d, simnet non-ack sends %d",
			counter("reliable_frames_total"), wantFrames)
	}
}

func TestLIDOverLossyRetransmissionCost(t *testing.T) {
	_, _, epsLossy, statsLossy := lidOverLossy(t, 9, 20, 0.3)
	_, _, epsClean, _ := lidOverLossy(t, 9, 20, 0.0)
	if TotalRetransmits(epsLossy) <= TotalRetransmits(epsClean) {
		t.Fatalf("lossy run should retransmit more: %d vs %d",
			TotalRetransmits(epsLossy), TotalRetransmits(epsClean))
	}
	if statsLossy.SentByKind["ACK"] == 0 {
		t.Fatal("no acks counted")
	}
	if statsLossy.SentByKind["PROP"] == 0 {
		t.Fatal("PROP kind lost through the wrapper")
	}
}
