package satisfaction

import (
	"sort"
	"testing"
	"testing/quick"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/pref"
)

func TestEdgeWeightSymmetric(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		s := randomSystem(t, seed, int(nRaw)%15+3, 0.5, 2)
		for _, e := range s.Graph().Edges() {
			rev := graph.Edge{U: e.V, V: e.U}
			if EdgeWeight(s, e) != EdgeWeight(s, rev) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeWeightIsSumOfStaticDeltas(t *testing.T) {
	s := randomSystem(t, 7, 12, 0.6, 3)
	for _, e := range s.Graph().Edges() {
		want := StaticDelta(s, e.U, e.V) + StaticDelta(s, e.V, e.U)
		if got := EdgeWeight(s, e); !almostEqual(got, want) {
			t.Fatalf("edge %v weight %v, want %v", e, got, want)
		}
	}
}

func TestEdgeWeightRange(t *testing.T) {
	// Each static delta is in (0, 1/bi], so weights lie in (0, 2].
	check := func(seed uint64, nRaw, bRaw uint8) bool {
		s := randomSystem(t, seed, int(nRaw)%15+3, 0.6, int(bRaw)%4+1)
		for _, e := range s.Graph().Edges() {
			w := EdgeWeight(s, e)
			if w <= 0 || w > 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestExactEdgeWeightMatchesFloat(t *testing.T) {
	// The float weight order must agree with the exact rational order
	// whenever the rationals differ by a representable margin; on the
	// test sizes the agreement must be exact.
	s := randomSystem(t, 21, 14, 0.7, 3)
	edges := s.Graph().Edges()
	for a := 0; a < len(edges); a++ {
		for b := a + 1; b < len(edges); b++ {
			exact := ExactEdgeWeight(s, edges[a]).Cmp(ExactEdgeWeight(s, edges[b]))
			fa, fb := EdgeWeight(s, edges[a]), EdgeWeight(s, edges[b])
			switch {
			case exact > 0 && fa <= fb:
				t.Fatalf("order mismatch: %v exact-heavier than %v but floats %v <= %v",
					edges[a], edges[b], fa, fb)
			case exact < 0 && fa >= fb:
				t.Fatalf("order mismatch: %v exact-lighter than %v but floats %v >= %v",
					edges[a], edges[b], fa, fb)
			}
		}
	}
}

func TestWeightKeyStrictTotalOrder(t *testing.T) {
	s := randomSystem(t, 31, 16, 0.5, 2)
	tbl := NewTable(s)
	edges := s.Graph().Edges()
	keys := make([]WeightKey, len(edges))
	for i, e := range edges {
		keys[i] = tbl.Key(e.U, e.V)
	}
	// Antisymmetric and total: exactly one of a≻b, b≻a for a≠b.
	for a := range keys {
		for b := range keys {
			ha, hb := keys[a].Heavier(keys[b]), keys[b].Heavier(keys[a])
			if a == b {
				if ha || hb {
					t.Fatal("key heavier than itself")
				}
				continue
			}
			if ha == hb {
				t.Fatalf("order not strict between %v and %v", keys[a], keys[b])
			}
		}
	}
	// Transitive: sort then verify adjacent chain implies full chain.
	sort.Slice(keys, func(i, j int) bool { return keys[i].Heavier(keys[j]) })
	for i := 0; i+1 < len(keys); i++ {
		if keys[i+1].Heavier(keys[i]) {
			t.Fatal("sorted order violated")
		}
	}
}

func TestWeightKeyTieBreakByID(t *testing.T) {
	// A 4-cycle with uniform quotas and "everyone equally liked" has
	// all edge weights equal; IDs must break ties deterministically.
	g := gen.Ring(4)
	lists := [][]graph.NodeID{{1, 3}, {0, 2}, {1, 3}, {0, 2}}
	s, err := pref.FromRanks(g, lists, []int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable(s)
	k01 := tbl.Key(0, 1)
	k23 := tbl.Key(2, 3)
	if !k01.Heavier(k23) {
		t.Fatal("tie-break should prefer lower canonical IDs")
	}
	if k01.Edge() != (graph.Edge{U: 0, V: 1}) {
		t.Fatalf("Edge() = %v", k01.Edge())
	}
}

func TestTableKeyPanicsOnMissingEdge(t *testing.T) {
	s := randomSystem(t, 1, 8, 0.3, 2)
	tbl := NewTable(s)
	// Find a non-edge.
	g := s.Graph()
	for u := 0; u < g.NumNodes(); u++ {
		for v := u + 1; v < g.NumNodes(); v++ {
			if !g.HasEdge(u, v) {
				defer func() {
					if recover() == nil {
						t.Fatal("Key on non-edge did not panic")
					}
				}()
				tbl.Key(u, v)
				return
			}
		}
	}
	t.Skip("graph complete; no non-edge to test")
}

func TestSortedNeighborsDescending(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		s := randomSystem(t, seed, int(nRaw)%15+3, 0.6, 2)
		tbl := NewTable(s)
		for u := 0; u < s.Graph().NumNodes(); u++ {
			sorted := tbl.SortedNeighbors(s, u)
			if len(sorted) != s.Graph().Degree(u) {
				return false
			}
			for i := 0; i+1 < len(sorted); i++ {
				if tbl.Key(u, sorted[i+1]).Heavier(tbl.Key(u, sorted[i])) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTableHeavierConvenience(t *testing.T) {
	s := randomSystem(t, 3, 10, 0.8, 2)
	tbl := NewTable(s)
	u := 0
	neigh := s.Graph().Neighbors(u)
	if len(neigh) < 2 {
		t.Skip("node 0 too sparse for this seed")
	}
	a, b := neigh[0], neigh[1]
	want := tbl.Key(u, a).Heavier(tbl.Key(u, b))
	if got := tbl.Heavier(u, a, b); got != want {
		t.Fatalf("Heavier = %v, want %v", got, want)
	}
}

// TestOrderKeysMatchHeavier: sorting EdgeIDs by (OrderKeys()[id], id)
// ascending gives exactly the order sorting WeightKeys by Heavier
// gives, on tables with many exact weight ties. Repair queues and the
// LIC sort order EdgeIDs this way in place of comparing WeightKeys, so
// a tie the packed key broke differently would reorder them.
func TestOrderKeysMatchHeavier(t *testing.T) {
	byID := pref.MetricFunc(func(i, j graph.NodeID) float64 { return -float64(j) })
	tied := func(g *graph.Graph, b int) *pref.System {
		s, err := pref.Build(g, byID, pref.UniformQuota(b))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	systems := map[string]*pref.System{
		"complete12": tied(gen.Complete(12), 2),
		"ring30":     tied(gen.Ring(30), 1),
		"grid6x7":    tied(gen.Grid(6, 7), 2),
		"random":     randomSystem(t, 41, 40, 0.2, 2),
	}
	for name, s := range systems {
		tbl := NewTable(s)
		g := s.Graph()
		ord := tbl.OrderKeys()
		ids := make([]graph.EdgeID, g.NumEdges())
		keys := make([]WeightKey, g.NumEdges())
		for i := range ids {
			ids[i] = graph.EdgeID(i)
			keys[i] = tbl.KeyByID(graph.EdgeID(i))
		}
		sort.Slice(ids, func(i, j int) bool {
			a, b := ids[i], ids[j]
			return ord[a] < ord[b] || ord[a] == ord[b] && a < b
		})
		sort.Slice(keys, func(i, j int) bool { return keys[i].Heavier(keys[j]) })
		ties := 0
		for i, id := range ids {
			if got, want := g.EdgeByID(id), keys[i].Edge(); got != want {
				t.Fatalf("%s: position %d holds %v by order key, %v by Heavier", name, i, got, want)
			}
			if i > 0 && keys[i].W == keys[i-1].W {
				ties++
			}
		}
		if name != "random" && ties == 0 {
			t.Fatalf("%s: no weight ties, so the tie-break went untested", name)
		}
	}
}
