package phased

import (
	"testing"
	"testing/quick"
	"time"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
	"overlaymatch/internal/transport"
	"overlaymatch/internal/variants"
)

func randomSystem(tb testing.TB, seed uint64, n int, p float64, b int) *pref.System {
	tb.Helper()
	src := rng.New(seed)
	g := gen.GNP(src, n, p)
	s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(b))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestEqualsCentralizedCoverageFirst is the package's headline
// property: the distributed two-phase protocol must produce exactly
// the variants.CoverageFirst matching under any interleaving.
func TestEqualsCentralizedCoverageFirst(t *testing.T) {
	check := func(seed uint64, nRaw, bRaw uint8, latSeed uint64) bool {
		s := randomSystem(t, seed, int(nRaw)%20+3, 0.4, int(bRaw)%3+1)
		tbl := satisfaction.NewTable(s)
		res, err := Run(s, tbl, simnet.Event(simnet.Options{
			Seed:    latSeed,
			Latency: simnet.ExponentialLatency(5),
		}), stack.Options{})
		if err != nil {
			return false
		}
		return res.Matching.Equal(variants.CoverageFirst(s, tbl))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFeasibleAndValidates(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		s := randomSystem(t, seed, 25, 0.3, 3)
		tbl := satisfaction.NewTable(s)
		res, err := Run(s, tbl, simnet.Event(simnet.Options{Seed: seed, Latency: simnet.ExponentialLatency(2)}), stack.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, stats := res.Matching, res.Stats
		if err := m.Validate(s); err != nil {
			t.Fatal(err)
		}
		// Two phases can at most double the message budget: ≤ 4m.
		if stats.TotalSent() > 4*s.Graph().NumEdges() {
			t.Fatalf("seed %d: %d messages for %d edges", seed, stats.TotalSent(), s.Graph().NumEdges())
		}
	}
}

// TestCoverageBeatsPlainLIDOnStarvation reconstructs the scenario the
// variant exists for: a popular hub whose heavy edges eat its quota in
// plain LID while a fringe peer starves.
func TestCoverageAggregate(t *testing.T) {
	// Aggregate over seeds: the two-phase protocol never leaves more
	// zero-connection peers than plain LID.
	var phasedZero, lidZero int
	for seed := uint64(0); seed < 30; seed++ {
		s := randomSystem(t, seed, 30, 0.2, 3)
		tbl := satisfaction.NewTable(s)
		res, err := Run(s, tbl, simnet.Event(simnet.Options{Seed: seed}), stack.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Matching
		lic := matching.LIC(s, tbl)
		for i := 0; i < 30; i++ {
			if s.Graph().Degree(i) == 0 {
				continue
			}
			if m.DegreeOf(i) == 0 {
				phasedZero++
			}
			if lic.DegreeOf(i) == 0 {
				lidZero++
			}
		}
	}
	if phasedZero > lidZero {
		t.Fatalf("two-phase protocol starved more peers (%d) than plain LID (%d)", phasedZero, lidZero)
	}
	t.Logf("zero-connection peers: phased %d vs plain LID %d", phasedZero, lidZero)
}

func TestQuotaOneCollapsesToLID(t *testing.T) {
	// With b=1 both phases collapse into plain LID (phase 2 has zero
	// residual work) and the outcome must equal LIC.
	for seed := uint64(0); seed < 15; seed++ {
		s := randomSystem(t, seed, 18, 0.4, 1)
		tbl := satisfaction.NewTable(s)
		res, err := Run(s, tbl, simnet.Event(simnet.Options{Seed: seed, Latency: simnet.ExponentialLatency(3)}), stack.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Matching
		if !m.Equal(matching.LIC(s, tbl)) {
			t.Fatalf("seed %d: b=1 phased != LIC", seed)
		}
	}
}

func TestInterleavingInvariance(t *testing.T) {
	s := randomSystem(t, 77, 22, 0.4, 3)
	tbl := satisfaction.NewTable(s)
	want := variants.CoverageFirst(s, tbl)
	for latSeed := uint64(0); latSeed < 20; latSeed++ {
		res, err := Run(s, tbl, simnet.Event(simnet.Options{Seed: latSeed, Latency: simnet.ExponentialLatency(8)}), stack.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Matching
		if !m.Equal(want) {
			t.Fatalf("latSeed %d: matching differs", latSeed)
		}
	}
}

func TestForeignMessagePanics(t *testing.T) {
	s := randomSystem(t, 1, 5, 1.0, 1)
	tbl := satisfaction.NewTable(s)
	nd := NewNode(s, tbl, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	nd.HandleMessage(noopCtx{}, 1, "garbage")
}

type noopCtx struct{}

func (noopCtx) ID() int                  { return 0 }
func (noopCtx) Send(int, simnet.Message) {}
func (noopCtx) Halt()                    {}
func (noopCtx) Time() float64            { return 0 }

func TestGoroutineRuntime(t *testing.T) {
	// The two-phase protocol uses only Send/Halt, so it also runs on
	// the in-process cluster; the outcome must still equal the
	// centralized coverage-first matching.
	for seed := uint64(0); seed < 8; seed++ {
		s := randomSystem(t, seed, 25, 0.3, 2)
		tbl := satisfaction.NewTable(s)
		res, err := Run(s, tbl, transport.Memory(transport.ClusterConfig{Timeout: 20 * time.Second}), stack.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Matching.Equal(variants.CoverageFirst(s, tbl)) {
			t.Fatalf("seed %d: goroutine phased != centralized coverage-first", seed)
		}
	}
}

// TestAsymmetricConnectionsRejected forges the 4-cycle 0–2–1–3–0 in
// which every node holds exactly one connection, but the lists
// 0:[2] 1:[3] 2:[1] 3:[0] pair up nobody. Every degree matches the
// would-be matching {0–2, 1–3}, so a degree-only symmetry check accepts
// it; assembly must reject it.
func TestAsymmetricConnectionsRejected(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 0, V: 3}})
	s, err := pref.Build(g, pref.NewRandomMetric(rng.New(1)), pref.UniformQuota(1))
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTable(s)
	partner := []graph.NodeID{2, 3, 1, 0}
	nodes := make([]*Node, 4)
	for id := range nodes {
		// Phase 1 locks exactly partner[id]: every other neighbor is
		// pre-resolved, and a PROP answers the node's own proposal.
		exclude := map[graph.NodeID]bool{}
		for _, v := range g.Neighbors(id) {
			if v != partner[id] {
				exclude[v] = true
			}
		}
		p1 := lid.NewNodeRestricted(s, tbl, id, 1, exclude)
		p1.Init(noopCtx{})
		p1.HandleMessage(noopCtx{}, partner[id], lid.Msg{IsProp: true})
		nodes[id] = &Node{s: s, tbl: tbl, id: id, phase: 2, p1: p1,
			p2: lid.NewNodeRestricted(s, tbl, id, 0, nil)}
		if got := nodes[id].Connections(); len(got) != 1 || got[0] != partner[id] {
			t.Fatalf("node %d forged connections %v, want [%d]", id, got, partner[id])
		}
	}
	if m, err := buildMatching(s, nodes); err == nil {
		t.Fatalf("asymmetric 4-cycle assembled into %v", m.Edges())
	}
}
