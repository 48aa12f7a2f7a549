package reliable_test

// These tests drive LID through the reliable layer. They live in an
// external test package because lid imports package stack, which
// imports reliable.

import (
	"testing"
	"testing/quick"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

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
	eps := reliable.WrapConfig(lid.Handlers(nodes), reliable.Config{RTO: rto})
	stats, err := simnet.NewRunner(g.NumNodes(), simnet.Options{Seed: 4}).Run(reliable.Handlers(eps))
	if err != nil {
		t.Fatal(err)
	}
	frames := 0
	for _, e := range eps {
		frames += e.Frames()
	}
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

// lidOverLossySystem builds a workload and runs LID through reliable
// endpoints over a lossy network.
func lidOverLossy(tb testing.TB, seed uint64, n int, dropP float64) (*matching.Matching, *pref.System, []*reliable.Endpoint, simnet.Stats) {
	tb.Helper()
	src := rng.New(seed)
	g := gen.GNP(src, n, 0.35)
	sys, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		tb.Fatal(err)
	}
	tbl := satisfaction.NewTable(sys)
	nodes := lid.NewNodes(sys, tbl)
	eps := reliable.WrapConfig(lid.Handlers(nodes), reliable.Config{RTO: 25})
	r := simnet.NewRunner(g.NumNodes(), simnet.Options{
		Seed:    seed*2654435761 + 1,
		Latency: simnet.ExponentialLatency(3),
		Policy:  reliable.UniformLoss(dropP, rng.New(seed*2654435761+2)),
	})
	stats, err := r.Run(reliable.Handlers(eps))
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
	reliable.PublishMetrics(reg, eps)
	reliable.PublishMetrics(nil, eps) // nil sink must be a no-op, not a panic

	counter := func(name string) int { return int(reg.Counter(name, "").Value()) }
	if counter("reliable_retransmits_total") != reliable.TotalRetransmits(eps) {
		t.Fatal("retransmit counter disagrees with endpoint view")
	}
	if counter("reliable_duplicates_total") != reliable.TotalDuplicates(eps) {
		t.Fatal("duplicate counter disagrees with endpoint view")
	}
	if counter("reliable_abandoned_total") != reliable.TotalAbandoned(eps) {
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
	if reliable.TotalRetransmits(epsLossy) <= reliable.TotalRetransmits(epsClean) {
		t.Fatalf("lossy run should retransmit more: %d vs %d",
			reliable.TotalRetransmits(epsLossy), reliable.TotalRetransmits(epsClean))
	}
	if statsLossy.SentByKind["ACK"] == 0 {
		t.Fatal("no acks counted")
	}
	if statsLossy.SentByKind["PROP"] == 0 {
		t.Fatal("PROP kind lost through the wrapper")
	}
}
