package lid

import (
	"testing"
	"testing/quick"
	"time"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
)

// randomSystem builds a G(n,p) graph with random private preferences.
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

func mustRunEvent(tb testing.TB, s *pref.System, seed uint64, lat simnet.LatencyFunc) Result {
	tb.Helper()
	tbl := satisfaction.NewTable(s)
	res, err := RunEvent(s, tbl, simnet.Options{Seed: seed, Latency: lat})
	if err != nil {
		tb.Fatalf("LID event run failed: %v", err)
	}
	return res
}

// TestLIDEqualsLICUnitLatency is the heart of experiment E2: the
// distributed protocol must lock exactly the LIC edge set.
func TestLIDEqualsLICUnitLatency(t *testing.T) {
	check := func(seed uint64, nRaw, bRaw uint8) bool {
		s := randomSystem(t, seed, int(nRaw)%25+2, 0.4, int(bRaw)%4+1)
		tbl := satisfaction.NewTable(s)
		res, err := RunEvent(s, tbl, simnet.Options{Seed: seed})
		if err != nil {
			return false
		}
		return res.Matching.Equal(matching.LIC(s, tbl))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLIDEqualsLICRandomLatency: the equality must hold under every
// asynchronous interleaving, here driven by heavy-tailed latencies.
func TestLIDEqualsLICRandomLatency(t *testing.T) {
	check := func(seed uint64, latSeed uint64, nRaw uint8) bool {
		s := randomSystem(t, seed, int(nRaw)%20+3, 0.5, 2)
		tbl := satisfaction.NewTable(s)
		res, err := RunEvent(s, tbl, simnet.Options{Seed: latSeed, Latency: simnet.ExponentialLatency(10)})
		if err != nil {
			return false
		}
		return res.Matching.Equal(matching.LIC(s, tbl))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestLIDGoroutineRuntime: the concurrent runtime (Go scheduler
// interleavings, exercised under -race in CI) must agree with LIC too.
func TestLIDGoroutineRuntime(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		s := randomSystem(t, seed, 30, 0.3, 2)
		tbl := satisfaction.NewTable(s)
		res, err := Run(s, tbl, transport.Memory(transport.ClusterConfig{Timeout: 20 * time.Second}), RunOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Matching.Equal(matching.LIC(s, tbl)) {
			t.Fatalf("seed %d: goroutine LID != LIC", seed)
		}
	}
}

// TestLemma5Termination: every run terminates structurally (no node
// waits forever), across topologies, quotas and latency regimes.
func TestLemma5Termination(t *testing.T) {
	topologies := map[string]func(seed uint64) *graph.Graph{
		"gnp":  func(seed uint64) *graph.Graph { return gen.GNP(rng.New(seed), 40, 0.15) },
		"ring": func(uint64) *graph.Graph { return gen.Ring(40) },
		"star": func(uint64) *graph.Graph { return gen.Star(40) },
		"ba":   func(seed uint64) *graph.Graph { return gen.BarabasiAlbert(rng.New(seed), 40, 2) },
		"grid": func(uint64) *graph.Graph { return gen.Grid(6, 7) },
		"tree": func(seed uint64) *graph.Graph { return gen.RandomTree(rng.New(seed), 40) },
	}
	for name, build := range topologies {
		for seed := uint64(0); seed < 5; seed++ {
			g := build(seed)
			src := rng.New(seed ^ 0xbeef)
			s, err := pref.Build(g, pref.NewRandomMetric(src), pref.UniformQuota(3))
			if err != nil {
				t.Fatal(err)
			}
			tbl := satisfaction.NewTable(s)
			if _, err := RunEvent(s, tbl, simnet.Options{
				Seed:          seed,
				Latency:       simnet.ExponentialLatency(5),
				MaxDeliveries: 100000,
			}); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

// TestCyclicPreferencesStillTerminate: the classic cyclic triangle that
// defeats best-response dynamics terminates under LID, because the
// synthesized eq.-9 weights are symmetric (the point of §5).
func TestCyclicPreferencesStillTerminate(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	s, err := pref.FromRanks(g,
		[][]graph.NodeID{{1, 2}, {2, 0}, {0, 1}},
		[]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	res := mustRunEvent(t, s, 1, nil)
	if res.Matching.Size() != 1 {
		t.Fatalf("triangle b=1 should lock exactly 1 edge, got %v", res.Matching.Edges())
	}
	if !res.Matching.Equal(matching.LIC(s, satisfaction.NewTable(s))) {
		t.Fatal("triangle outcome differs from LIC")
	}
}

// TestMessageComplexity: every directed pair carries at most one
// message, so total messages ≤ 2m and per-node messages ≤ deg(i).
func TestMessageComplexity(t *testing.T) {
	check := func(seed uint64, nRaw, bRaw uint8) bool {
		s := randomSystem(t, seed, int(nRaw)%20+3, 0.5, int(bRaw)%4+1)
		g := s.Graph()
		res := mustRunEvent(t, s, seed, simnet.ExponentialLatency(3))
		if res.Stats.TotalSent() > 2*g.NumEdges() {
			return false
		}
		for i := 0; i < g.NumNodes(); i++ {
			if res.Stats.SentByNode[i] > g.Degree(i) {
				return false
			}
		}
		return res.PropMessages+res.RejMessages == res.Stats.TotalSent()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestEveryProposalAnswered: in the final state no node still waits on
// a proposal, and every node halted.
func TestEveryProposalAnswered(t *testing.T) {
	s := randomSystem(t, 9, 30, 0.3, 2)
	tbl := satisfaction.NewTable(s)
	nodes := NewNodes(s, tbl)
	runner := simnet.NewRunner(s.Graph().NumNodes(), simnet.Options{Seed: 3})
	if _, err := runner.Run(Handlers(nodes)); err != nil {
		t.Fatal(err)
	}
	for _, nd := range nodes {
		if !nd.Halted() {
			t.Fatalf("node %d not halted", nd.id)
		}
		if nd.pending != 0 {
			t.Fatalf("node %d still has %d outstanding proposals", nd.id, nd.pending)
		}
		if nd.unresolved != 0 {
			t.Fatalf("node %d still has %d unresolved neighbors", nd.id, nd.unresolved)
		}
	}
}

// TestLIDMatchingFeasibleAndMaximal mirrors the LIC structural
// properties on the distributed outcome.
func TestLIDMatchingFeasibleAndMaximal(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		s := randomSystem(t, seed, int(nRaw)%20+3, 0.4, 2)
		res := mustRunEvent(t, s, seed, nil)
		if res.Matching.Validate(s) != nil {
			return false
		}
		for _, e := range s.Graph().Edges() {
			if res.Matching.Has(e.U, e.V) {
				continue
			}
			if res.Matching.DegreeOf(e.U) < s.Quota(e.U) && res.Matching.DegreeOf(e.V) < s.Quota(e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestInterleavingInvariance: 30 different latency seeds on the same
// instance must all yield the identical matching (Lemmas 3,4,6).
func TestInterleavingInvariance(t *testing.T) {
	s := randomSystem(t, 1234, 25, 0.4, 3)
	tbl := satisfaction.NewTable(s)
	want := matching.LIC(s, tbl)
	for latSeed := uint64(0); latSeed < 30; latSeed++ {
		res, err := RunEvent(s, tbl, simnet.Options{Seed: latSeed, Latency: simnet.ExponentialLatency(8)})
		if err != nil {
			t.Fatalf("latSeed %d: %v", latSeed, err)
		}
		if !res.Matching.Equal(want) {
			t.Fatalf("latSeed %d: matching differs", latSeed)
		}
	}
}

func TestIsolatedAndTinyGraphs(t *testing.T) {
	for name, g := range map[string]*graph.Graph{
		"empty":    graph.NewBuilder(0).MustGraph(),
		"isolated": graph.NewBuilder(5).MustGraph(),
		"one edge": gen.Path(2),
		"path3":    gen.Path(3),
	} {
		s, err := pref.Build(g, pref.MetricFunc(func(i, j graph.NodeID) float64 { return float64(i ^ j) }), pref.UniformQuota(1))
		if err != nil {
			t.Fatal(err)
		}
		res := mustRunEvent(t, s, 7, nil)
		if err := res.Matching.Validate(s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Matching.Equal(matching.LIC(s, satisfaction.NewTable(s))) {
			t.Fatalf("%s: != LIC", name)
		}
	}
}

func TestNonLIDMessagePanics(t *testing.T) {
	s := randomSystem(t, 2, 4, 1.0, 1)
	tbl := satisfaction.NewTable(s)
	nd := NewNode(s, tbl, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on foreign message")
		}
	}()
	nd.HandleMessage(nopCtx{}, 1, "not a lid message")
}

func TestMessageFromNonNeighborPanics(t *testing.T) {
	g := gen.Path(3) // 0-1-2; 0 and 2 are not neighbors
	s, err := pref.Build(g, pref.MetricFunc(func(i, j graph.NodeID) float64 { return 0 }), pref.UniformQuota(1))
	if err != nil {
		t.Fatal(err)
	}
	nd := NewNode(s, satisfaction.NewTable(s), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-neighbor message")
		}
	}()
	nd.HandleMessage(nopCtx{}, 2, propMsg)
}

// nopCtx is a throwaway Context for direct state-machine pokes.
type nopCtx struct{}

func (nopCtx) ID() int                  { return 0 }
func (nopCtx) Send(int, simnet.Message) {}
func (nopCtx) Halt()                    {}
func (nopCtx) Time() float64            { return 0 }

func TestMsgKind(t *testing.T) {
	if propMsg.Kind() != "PROP" || rejMsg.Kind() != "REJ" {
		t.Fatal("message kinds wrong")
	}
}

func TestBuildMatchingDetectsAsymmetry(t *testing.T) {
	s := randomSystem(t, 3, 4, 1.0, 1)
	tbl := satisfaction.NewTable(s)
	nodes := NewNodes(s, tbl)
	// Forge an asymmetric lock.
	nodes[0].locked = append(nodes[0].locked, 1)
	if _, err := BuildMatching(nodes); err == nil {
		t.Fatal("asymmetric lock not detected")
	}
}

// TestBuildMatchingNoNodes: an empty overlay (overlaysim -n 0) has no
// node to carry the system, and still assembles the empty matching.
func TestBuildMatchingNoNodes(t *testing.T) {
	m, err := BuildMatching(nil)
	if err != nil || m.Size() != 0 || m.NumNodes() != 0 {
		t.Fatalf("empty assembly: %v, %v", m, err)
	}
}
