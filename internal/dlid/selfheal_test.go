package dlid

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
)

// cutNode drops every message to or from node during [start, end).
type cutNode struct {
	node       graph.NodeID
	start, end float64
}

func (c cutNode) Verdict(now float64, from, to int, msg simnet.Message) simnet.LinkVerdict {
	if (from == c.node || to == c.node) && now >= c.start && now < c.end {
		return simnet.LinkVerdict{Drop: true}
	}
	return simnet.LinkVerdict{}
}

// sendRecorder captures sends for white-box upcall tests.
type sendRecorder struct {
	discardCtx
	sent []Msg
	to   []graph.NodeID
}

func (c *sendRecorder) Send(to int, msg simnet.Message) {
	c.sent = append(c.sent, msg.(Msg))
	c.to = append(c.to, to)
}

// TestPeerDownUpcalls drives the suspect/linkdown/restore upcalls
// directly: a suspected connected peer is mourned like a BYE, and a
// restore re-greets with HELLO.
func TestPeerDownUpcalls(t *testing.T) {
	s := randomSystem(t, 3, 10, 0.8, 2)
	tbl := satisfaction.NewTable(s)
	lic := matching.LIC(s, tbl)
	nodes := NewNodes(s, tbl, lic)
	var u graph.NodeID = -1
	for i := range nodes {
		if lic.DegreeOf(i) > 0 {
			u = i
			break
		}
	}
	if u < 0 {
		t.Skip("nothing matched")
	}
	peer := lic.Connections(u)[0]
	ctx := &sendRecorder{}
	nodes[u].HandleSuspect(ctx, peer)
	if nodes[u].SynthByes != 1 {
		t.Fatalf("SynthByes = %d, want 1", nodes[u].SynthByes)
	}
	if nv := nodes[u].neighborView(peer); nv.connected || nv.alive {
		t.Fatal("suspected peer still held")
	}
	// A second verdict for the same outage (e.g. LinkDown after the
	// detector already spoke) is a no-op.
	nodes[u].HandleLinkDown(ctx, peer)
	if nodes[u].SynthByes != 1 {
		t.Fatalf("double-mourned: SynthByes = %d", nodes[u].SynthByes)
	}
	ctx.sent, ctx.to = nil, nil
	nodes[u].HandleRestore(ctx, peer)
	if nodes[u].Resyncs != 1 {
		t.Fatalf("Resyncs = %d, want 1", nodes[u].Resyncs)
	}
	if len(ctx.sent) == 0 || ctx.sent[0].K != kHello || ctx.to[0] != peer {
		t.Fatalf("restore did not HELLO the peer: %v -> %v", ctx.sent, ctx.to)
	}
	// Restoring a peer that was never mourned is a no-op.
	other := -1
	for _, nb := range s.Graph().Neighbors(u) {
		if nb != peer {
			other = nb
			break
		}
	}
	if other >= 0 {
		nodes[u].HandleRestore(ctx, other)
		if nodes[u].Resyncs != 1 {
			t.Fatal("restore of an unmourned peer resynced")
		}
	}
}

// TestRematchIdleStaysSilent pins that the preemptive discipline adds
// no traffic when the LIC seed is already stable (it is the greedy
// stable state, so nothing may move).
func TestRematchIdleStaysSilent(t *testing.T) {
	s := randomSystem(t, 5, 20, 0.4, 2)
	tbl := satisfaction.NewTable(s)
	res, err := RunMode(s, tbl, Rematch, nil, simnet.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalSent() != 0 {
		t.Fatalf("idle Rematch overlay sent %d messages", res.Stats.TotalSent())
	}
	if !res.Live.Equal(matching.LIC(s, tbl)) {
		t.Fatal("idle Rematch overlay changed the matching")
	}
}

// greedyLiveLIC is the unique stable b-matching of the live subgraph
// under the ORIGINAL symmetric weights: edges among alive nodes added
// in descending weight order while both quotas last. (LiveLICWeight is
// NOT this — it re-ranks preferences inside the subgraph, which
// shifts the satisfaction weights; the distributed nodes keep their
// original weight lists, so their stable point is this one.)
func greedyLiveLIC(s *pref.System, nodes []*Node) *matching.Matching {
	type wedge struct {
		e graph.Edge
		w float64
	}
	var edges []wedge
	for _, e := range s.Graph().Edges() {
		if nodes[e.U].Alive() && nodes[e.V].Alive() {
			edges = append(edges, wedge{e, satisfaction.EdgeWeight(s, e)})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].w != edges[j].w {
			return edges[i].w > edges[j].w
		}
		if edges[i].e.U != edges[j].e.U {
			return edges[i].e.U < edges[j].e.U
		}
		return edges[i].e.V < edges[j].e.V
	})
	m := matching.NewDense(s.Graph())
	for _, we := range edges {
		if m.DegreeOf(we.e.U) < s.Quota(we.e.U) && m.DegreeOf(we.e.V) < s.Quota(we.e.V) {
			m.Add(we.e.U, we.e.V)
		}
	}
	return m
}

// TestRematchEqualsLICUnderChurn is the stability property the
// self-healing story rests on: the preemptive discipline does not just
// reach a maximal matching after churn — it reaches *the* greedy LIC
// matching of the live subgraph (the unique stable b-matching under
// symmetric distinct weights).
func TestRematchEqualsLICUnderChurn(t *testing.T) {
	check := func(seed uint64, nRaw, bRaw uint8) bool {
		n := int(nRaw)%20 + 6
		b := int(bRaw)%3 + 1
		s := randomSystem(t, seed, n, 0.4, b)
		tbl := satisfaction.NewTable(s)
		schedule := Schedule(s, rng.New(seed^0xbeef), 10, 60, 0.5, n/3)
		res, err := RunMode(s, tbl, Rematch, schedule, simnet.Options{
			Seed:    seed,
			Latency: simnet.ExponentialLatency(0.5),
		})
		if err != nil {
			t.Log(err)
			return false
		}
		if !res.Live.Equal(greedyLiveLIC(s, res.Nodes)) {
			t.Logf("seed %d n=%d b=%d: live matching is not the stable greedy LIC", seed, n, b)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSelfHealCrashRecovery is the headline scenario: a node is cut
// off mid-run (crash), the detector suspects it on both sides of the
// cut, repair re-knits the survivors, and when the window heals the
// HELLO resync reintegrates the node — ending in exactly the LIC
// matching of the full topology.
func TestSelfHealCrashRecovery(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		s := randomSystem(t, seed, 24, 0.3, 2)
		tbl := satisfaction.NewTable(s)
		lic := matching.LIC(s, tbl)
		crash := 0
		for i := 1; i < s.Graph().NumNodes(); i++ {
			if lic.DegreeOf(i) > lic.DegreeOf(crash) {
				crash = i
			}
		}
		if lic.DegreeOf(crash) == 0 {
			continue
		}
		res, err := RunSelfHeal(s, tbl, SelfHealConfig{
			Mode:     Rematch,
			Detector: detector.Default(),
		}, nil, simnet.Options{
			Seed:    seed,
			Latency: simnet.ExponentialLatency(0.5),
			Policy:  cutNode{node: crash, start: 40, end: 200},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Suspicions == 0 || res.SynthByes == 0 {
			t.Fatalf("seed %d: crash went undetected (%d suspicions, %d synth byes)",
				seed, res.Suspicions, res.SynthByes)
		}
		if res.Restores == 0 || res.Resyncs == 0 {
			t.Fatalf("seed %d: heal went unnoticed (%d restores, %d resyncs)",
				seed, res.Restores, res.Resyncs)
		}
		if !res.Live.Equal(lic) {
			t.Fatalf("seed %d: post-heal matching differs from LIC", seed)
		}
	}
}

// TestCrashStopDetectorRepairs covers the never-healing cut: the
// silenced node stays formally alive, so correctness is maximality of
// everyone else — every survivor must have repaired away its edges to
// the dead node, and no restore may ever fire.
func TestCrashStopDetectorRepairs(t *testing.T) {
	s := randomSystem(t, 11, 24, 0.3, 2)
	tbl := satisfaction.NewTable(s)
	lic := matching.LIC(s, tbl)
	crash := 0
	for i := 1; i < s.Graph().NumNodes(); i++ {
		if lic.DegreeOf(i) > lic.DegreeOf(crash) {
			crash = i
		}
	}
	res, err := RunSelfHeal(s, tbl, SelfHealConfig{
		Mode:     Rematch,
		Detector: detector.Default(),
		Excluded: map[graph.NodeID]bool{crash: true},
	}, nil, simnet.Options{
		Seed:    11,
		Latency: simnet.ExponentialLatency(0.5),
		Policy:  cutNode{node: crash, start: 30, end: math.Inf(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Suspicions < lic.DegreeOf(crash) {
		t.Fatalf("only %d suspicions for a node matched %d times", res.Suspicions, lic.DegreeOf(crash))
	}
	if res.Restores != 0 || res.Resyncs != 0 {
		t.Fatalf("restores on a permanent cut: %d/%d", res.Restores, res.Resyncs)
	}
	if res.Live.DegreeOf(crash) != 0 {
		t.Fatal("silenced node still matched in the live extraction")
	}
}

// TestSelfHealZeroFaultControl is the determinism guarantee behind
// E16's control row: with the detector on but no faults, no suspicion
// fires and the protocol layer is never woken — the matching is
// byte-identical to a detector-free run and only HB/HB-ACK traffic
// exists on the wire.
func TestSelfHealZeroFaultControl(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		s := randomSystem(t, seed, 20, 0.4, 2)
		tbl := satisfaction.NewTable(s)
		res, err := RunSelfHeal(s, tbl, SelfHealConfig{
			Mode:     Rematch,
			Detector: detector.Default(),
		}, nil, simnet.Options{Seed: seed, Latency: simnet.ExponentialLatency(0.5)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Suspicions != 0 || res.Restores != 0 {
			t.Fatalf("seed %d: false verdicts on a clean run (%d/%d)", seed, res.Suspicions, res.Restores)
		}
		if !res.Live.Equal(matching.LIC(s, tbl)) {
			t.Fatalf("seed %d: monitored idle overlay changed the matching", seed)
		}
		for kind, cnt := range res.Stats.SentByKind {
			if kind != "HB" && kind != "HB-ACK" && cnt > 0 {
				t.Fatalf("seed %d: protocol traffic %q on a fault-free run", seed, kind)
			}
		}
	}
}
