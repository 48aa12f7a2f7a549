package pref

import (
	"reflect"
	"testing"
	"testing/quick"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/rng"
)

func triangle() *graph.Graph {
	return graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
}

func TestFromRanksBasics(t *testing.T) {
	g := triangle()
	s, err := FromRanks(g,
		[][]graph.NodeID{{1, 2}, {2, 0}, {0, 1}},
		[]int{1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Rank(0, 1) != 0 || s.Rank(0, 2) != 1 {
		t.Fatal("ranks of node 0 wrong")
	}
	if s.Quota(0) != 1 || s.Quota(1) != 2 || s.Quota(2) != 1 {
		t.Fatal("quotas wrong")
	}
	if s.ListLen(0) != 2 {
		t.Fatal("list length wrong")
	}
	if s.MaxQuota() != 2 {
		t.Fatal("MaxQuota wrong")
	}
	if s.Graph() != g {
		t.Fatal("Graph() identity lost")
	}
}

func TestFromRanksQuotaClamping(t *testing.T) {
	g := triangle()
	s, err := FromRanks(g,
		[][]graph.NodeID{{1, 2}, {2, 0}, {0, 1}},
		[]int{99, 0, -5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Quota(0) != 2 { // clamped to |L0|
		t.Fatalf("quota 0 = %d, want 2", s.Quota(0))
	}
	if s.Quota(1) != 1 || s.Quota(2) != 1 { // raised to 1
		t.Fatalf("quotas = %d,%d, want 1,1", s.Quota(1), s.Quota(2))
	}
}

// TestInduced: dropping node 1 of a 4-cycle with a chord relabels
// 0,2,3 as 0,1,2, filters every list in preference order, and clamps
// node 0's quota to its shorter list.
func TestInduced(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}, {U: 0, V: 2}})
	s, err := FromRanks(g,
		[][]graph.NodeID{{1, 3, 2}, {2, 0}, {3, 0, 1}, {2, 0}},
		[]int{3, 1, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	sub, back, err := s.Induced(func(i graph.NodeID) bool { return i != 1 })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, []graph.NodeID{0, 2, 3}) {
		t.Fatalf("back = %v", back)
	}
	if got := sub.Graph().NumEdges(); got != 3 {
		t.Fatalf("induced graph has %d edges, want 3", got)
	}
	wantLists := [][]graph.NodeID{{2, 1}, {2, 0}, {1, 0}}
	wantQuotas := []int{2, 2, 1}
	for i := range wantLists {
		if !reflect.DeepEqual(sub.List(i), wantLists[i]) || sub.Quota(i) != wantQuotas[i] {
			t.Fatalf("node %d: list %v quota %d, want %v and %d", i, sub.List(i), sub.Quota(i), wantLists[i], wantQuotas[i])
		}
	}
}

func TestFromRanksIsolatedNode(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}})
	s, err := FromRanks(g, [][]graph.NodeID{{1}, {0}, {}}, []int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Quota(2) != 0 || s.ListLen(2) != 0 {
		t.Fatal("isolated node should have empty list and zero quota")
	}
}

func TestFromRanksRejectsBadLists(t *testing.T) {
	g := triangle()
	cases := map[string][][]graph.NodeID{
		"missing neighbor": {{1}, {2, 0}, {0, 1}},
		"non-neighbor":     {{1, 2}, {2, 0}, {0, 0}},
		"duplicate":        {{1, 1}, {2, 0}, {0, 1}},
	}
	for name, lists := range cases {
		if _, err := FromRanks(g, lists, []int{1, 1, 1}); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := FromRanks(g, [][]graph.NodeID{{1, 2}}, []int{1}); err == nil {
		t.Error("short lists slice: expected error")
	}
}

func TestRankPanicsOnNonNeighbor(t *testing.T) {
	s, _ := FromRanks(triangle(), [][]graph.NodeID{{1, 2}, {2, 0}, {0, 1}}, []int{1, 1, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("Rank on non-neighbor did not panic")
		}
	}()
	s.Rank(0, 0)
}

func TestBuildSortsByScoreDescending(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	capacity := []float64{0, 5, 9, 1}
	s, err := Build(g, ResourceMetric{Capacity: capacity}, UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	if want := []graph.NodeID{2, 1, 3}; !reflect.DeepEqual(s.List(0), want) {
		t.Fatalf("list(0) = %v, want %v", s.List(0), want)
	}
	if s.Quota(0) != 2 || s.Quota(1) != 1 {
		t.Fatalf("quotas = %d,%d", s.Quota(0), s.Quota(1))
	}
}

func TestBuildTieBreakByID(t *testing.T) {
	g := gen.Star(5)
	s, err := Build(g, MetricFunc(func(i, j graph.NodeID) float64 { return 7 }), UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	if want := []graph.NodeID{1, 2, 3, 4}; !reflect.DeepEqual(s.List(0), want) {
		t.Fatalf("tied list = %v, want ascending IDs %v", s.List(0), want)
	}
}

func TestBuildValidatesOnRandomGraphs(t *testing.T) {
	check := func(seed uint64, nRaw uint8, bRaw uint8) bool {
		n := int(nRaw)%25 + 2
		b := int(bRaw)%4 + 1
		src := rng.New(seed)
		g := gen.GNP(src, n, 0.4)
		s, err := Build(g, NewRandomMetric(src.Split()), UniformQuota(b))
		if err != nil {
			return false
		}
		return s.Validate() == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDegreeFractionQuota(t *testing.T) {
	g := gen.Star(11) // center degree 10, leaves degree 1
	q := DegreeFractionQuota(g, 0.3)
	if q(0) != 3 {
		t.Fatalf("center quota = %d, want 3", q(0))
	}
	if q(1) != 1 {
		t.Fatalf("leaf quota = %d, want 1 (floor raised)", q(1))
	}
}

func TestDistanceMetric(t *testing.T) {
	m := DistanceMetric{Coords: [][2]float64{{0, 0}, {1, 0}, {0, 3}}}
	if m.Score(0, 1) <= m.Score(0, 2) {
		t.Fatal("nearer node should score higher")
	}
	if m.Score(0, 1) != -1 {
		t.Fatalf("score = %v, want -1", m.Score(0, 1))
	}
}

func TestInterestMetric(t *testing.T) {
	m := InterestMetric{Interests: [][]float64{
		{1, 0, 0},
		{1, 0, 0},
		{0, 1, 0},
		{0, 0, 0},
	}}
	if got := m.Score(0, 1); got != 1 {
		t.Fatalf("identical interests score %v, want 1", got)
	}
	if got := m.Score(0, 2); got != 0 {
		t.Fatalf("orthogonal interests score %v, want 0", got)
	}
	if got := m.Score(0, 3); got != 0 {
		t.Fatalf("zero vector score %v, want 0", got)
	}
}

func TestInterestMetricPanicsOnLengthMismatch(t *testing.T) {
	m := InterestMetric{Interests: [][]float64{{1}, {1, 2}}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Score(0, 1)
}

func TestTransactionMetricAsymmetry(t *testing.T) {
	m := TransactionMetric{History: [][]float64{{0, 4}, {-2, 0}}}
	if m.Score(0, 1) != 4 || m.Score(1, 0) != -2 {
		t.Fatal("TransactionMetric must read History[i][j]")
	}
}

func TestRandomMetricMemoized(t *testing.T) {
	m := NewRandomMetric(rng.New(1))
	a := m.Score(3, 5)
	if m.Score(3, 5) != a {
		t.Fatal("RandomMetric not memoized")
	}
	if m.Score(5, 3) == a {
		t.Fatal("RandomMetric should be asymmetric with overwhelming probability")
	}
}

func TestSymmetricRandomMetric(t *testing.T) {
	m := NewSymmetricRandomMetric(rng.New(2))
	if m.Score(3, 5) != m.Score(5, 3) {
		t.Fatal("SymmetricRandomMetric not symmetric")
	}
}

func TestCompositeMetric(t *testing.T) {
	m := CompositeMetric{
		Metrics: []Metric{
			MetricFunc(func(i, j graph.NodeID) float64 { return 1 }),
			MetricFunc(func(i, j graph.NodeID) float64 { return 10 }),
		},
		Weights: []float64{0.5, 0.25},
	}
	if got := m.Score(0, 1); got != 3 {
		t.Fatalf("composite score = %v, want 3", got)
	}
}

func TestCompositeMetricPanicsOnMismatch(t *testing.T) {
	m := CompositeMetric{Metrics: []Metric{MetricFunc(func(i, j graph.NodeID) float64 { return 0 })}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Score(0, 1)
}

func TestPerNodeMetric(t *testing.T) {
	m := PerNodeMetric{ByNode: []Metric{
		MetricFunc(func(i, j graph.NodeID) float64 { return float64(j) }),
		MetricFunc(func(i, j graph.NodeID) float64 { return -float64(j) }),
	}}
	if m.Score(0, 5) != 5 || m.Score(1, 5) != -5 {
		t.Fatal("PerNodeMetric did not dispatch by node")
	}
}
