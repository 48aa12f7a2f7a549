package matching

import (
	"testing"
	"testing/quick"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
)

func TestLICFeasible(t *testing.T) {
	check := func(seed uint64, nRaw, bRaw uint8) bool {
		s := randomSystem(t, seed, int(nRaw)%20+2, 0.5, int(bRaw)%4+1)
		m := LIC(s, satisfaction.NewTable(s))
		return m.Validate(s) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLICMaximal(t *testing.T) {
	// LIC output is maximal: no remaining edge fits both quotas.
	check := func(seed uint64, nRaw uint8) bool {
		s := randomSystem(t, seed, int(nRaw)%15+3, 0.6, 2)
		m := LIC(s, satisfaction.NewTable(s))
		for _, e := range s.Graph().Edges() {
			if m.Has(e.U, e.V) {
				continue
			}
			if m.DegreeOf(e.U) < s.Quota(e.U) && m.DegreeOf(e.V) < s.Quota(e.V) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestInducedLIC: keeping every node gives LIC itself; dropping nodes
// gives exactly the induced subsystem's LIC in s's IDs, a valid
// matching of s that touches no dropped node.
func TestInducedLIC(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		s := randomSystem(t, seed, int(nRaw)%15+3, 0.5, 2)
		all, err := InducedLIC(s, func(graph.NodeID) bool { return true })
		if err != nil || !all.Equal(LIC(s, satisfaction.NewTable(s))) {
			return false
		}
		keep := func(x graph.NodeID) bool { return x%3 != 0 }
		m, err := InducedLIC(s, keep)
		if err != nil || m.Validate(s) != nil {
			return false
		}
		for _, e := range m.Edges() {
			if !keep(e.U) || !keep(e.V) {
				return false
			}
		}
		sub, back, err := s.Induced(keep)
		if err != nil {
			return false
		}
		subM := LIC(sub, satisfaction.NewTable(sub))
		for _, e := range subM.Edges() {
			if !m.Has(back[e.U], back[e.V]) {
				return false
			}
		}
		return m.Size() == subM.Size()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLICQuotaOneIsMatching(t *testing.T) {
	// With b=1 everywhere the result must be a classical matching:
	// no two selected edges share an endpoint.
	s := randomSystem(t, 12, 14, 0.6, 1)
	m := LIC(s, satisfaction.NewTable(s))
	seen := make(map[graph.NodeID]bool)
	for _, e := range m.Edges() {
		if seen[e.U] || seen[e.V] {
			t.Fatal("b=1 result is not a matching")
		}
		seen[e.U], seen[e.V] = true, true
	}
}

// TestLemma6OrderIndependence: the literal Algorithm 2 with random
// locally-heaviest choices must produce exactly the sorted-scan LIC
// edge set, for every instance and every selection order.
func TestLemma6OrderIndependence(t *testing.T) {
	check := func(seed uint64, nRaw, bRaw, orderSeed uint8) bool {
		s := randomSystem(t, seed, int(nRaw)%12+3, 0.5, int(bRaw)%3+1)
		tbl := satisfaction.NewTable(s)
		want := LIC(s, tbl)
		got := LICLiteral(s, tbl, rng.New(uint64(orderSeed)))
		return got.Equal(want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestLemma4ChosenHeavierThanUnchosen(t *testing.T) {
	// Lemma 4: for every node, every selected incident edge outweighs
	// every incident edge that was available when the node saturated —
	// in particular any unselected incident edge whose other endpoint
	// also has spare... the clean checkable form: if node i is
	// saturated, each unselected incident edge with an unsaturated
	// other endpoint must be lighter than i's lightest selected edge.
	for seed := uint64(0); seed < 50; seed++ {
		s := randomSystem(t, seed, 12, 0.6, 2)
		tbl := satisfaction.NewTable(s)
		m := LIC(s, tbl)
		g := s.Graph()
		for i := 0; i < g.NumNodes(); i++ {
			if m.DegreeOf(i) < s.Quota(i) {
				continue
			}
			// lightest selected edge at i
			var lightest *satisfaction.WeightKey
			for _, j := range m.Connections(i) {
				k := satisfaction.KeyFor(s, graph.Edge{U: i, V: j})
				if lightest == nil || lightest.Heavier(k) {
					kk := k
					lightest = &kk
				}
			}
			for _, j := range g.Neighbors(i) {
				if m.Has(i, j) {
					continue
				}
				if m.DegreeOf(j) < s.Quota(j) {
					if k := satisfaction.KeyFor(s, graph.Edge{U: i, V: j}); k.Heavier(*lightest) {
						t.Fatalf("seed %d: node %d kept %v over heavier available %v",
							seed, i, lightest, k)
					}
				}
			}
		}
	}
}

func TestLICDeterministic(t *testing.T) {
	s := randomSystem(t, 77, 20, 0.4, 3)
	tbl := satisfaction.NewTable(s)
	if !LIC(s, tbl).Equal(LIC(s, tbl)) {
		t.Fatal("LIC not deterministic")
	}
}

func TestLICEmptyAndTrivialGraphs(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.NewBuilder(0).MustGraph(),
		graph.NewBuilder(4).MustGraph(),
		gen.Path(2),
	} {
		s, err := pref.Build(g, pref.MetricFunc(func(i, j graph.NodeID) float64 { return 0 }), pref.UniformQuota(1))
		if err != nil {
			t.Fatal(err)
		}
		m := LIC(s, satisfaction.NewTable(s))
		if err := m.Validate(s); err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() == 1 && m.Size() != 1 {
			t.Fatal("single-edge graph should match its edge")
		}
	}
}

func TestLICStarTopChoices(t *testing.T) {
	// Star center with quota b and uniform leaf quotas: LIC must select
	// exactly the center's b heaviest edges; with equal leaf parameters
	// the weight order equals the center's preference order.
	g := gen.Star(8)
	lists := make([][]graph.NodeID, 8)
	lists[0] = []graph.NodeID{3, 5, 1, 7, 2, 4, 6} // center's preference order
	quotas := make([]int, 8)
	quotas[0] = 3
	for i := 1; i < 8; i++ {
		lists[i] = []graph.NodeID{0}
		quotas[i] = 1
	}
	s, err := pref.FromRanks(g, lists, quotas)
	if err != nil {
		t.Fatal(err)
	}
	m := LIC(s, satisfaction.NewTable(s))
	for _, want := range []graph.NodeID{3, 5, 1} {
		if !m.Has(0, want) {
			t.Fatalf("center should connect to %v; got %v", want, m.Edges())
		}
	}
	if m.Size() != 3 {
		t.Fatalf("size = %d, want 3", m.Size())
	}
}

func TestLICLiteralPoolDynamics(t *testing.T) {
	// Saturation must drop all of a node's remaining edges: on a path
	// 0-1-2 with quota 1 everywhere and weights making (0,1) heaviest,
	// the literal algorithm must end with exactly {(0,1)} if (1,2) is
	// dropped... node 2 stays free, so result = {(0,1)}.
	g := gen.Path(3)
	lists := [][]graph.NodeID{{1}, {0, 2}, {1}}
	s, err := pref.FromRanks(g, lists, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTable(s)
	m := LICLiteral(s, tbl, rng.New(0))
	if !m.Has(0, 1) || m.Has(1, 2) || m.Size() != 1 {
		t.Fatalf("literal result %v", m.Edges())
	}
}
