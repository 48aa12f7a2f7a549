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
	edges := s.Graph().Edges()
	keys := make([]WeightKey, len(edges))
	for i, e := range edges {
		keys[i] = KeyFor(s, e)
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
	k01 := KeyFor(s, graph.Edge{U: 1, V: 0})
	k23 := KeyFor(s, graph.Edge{U: 2, V: 3})
	if !k01.Heavier(k23) {
		t.Fatal("tie-break should prefer lower canonical IDs")
	}
	if k01.U != 0 || k01.V != 1 {
		t.Fatalf("KeyFor did not normalize: %+v", k01)
	}
	tbl := NewTable(s)
	id01, _ := g.EdgeIDOf(0, 1)
	id23, _ := g.EdgeIDOf(2, 3)
	if !tbl.Heavier(id01, id23) || tbl.Heavier(id23, id01) {
		t.Fatal("table order should prefer lower canonical IDs")
	}
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
				next := KeyFor(s, graph.Edge{U: u, V: sorted[i+1]})
				if next.Heavier(KeyFor(s, graph.Edge{U: u, V: sorted[i]})) {
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

// tiedSystems returns the tie-heavy systems the order tests share:
// every node ranks its neighbors by ID, so on the complete graph, the
// ring and the grid many edges carry exactly equal weights and only
// the endpoint tie-break orders them; a random system rounds them out.
func tiedSystems(t *testing.T) map[string]*pref.System {
	byID := pref.MetricFunc(func(i, j graph.NodeID) float64 { return -float64(j) })
	tied := func(g *graph.Graph, b int) *pref.System {
		s, err := pref.Build(g, byID, pref.UniformQuota(b))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return map[string]*pref.System{
		"complete12": tied(gen.Complete(12), 2),
		"ring30":     tied(gen.Ring(30), 1),
		"grid6x7":    tied(gen.Grid(6, 7), 2),
		"random":     randomSystem(t, 41, 40, 0.2, 2),
	}
}

// TestWeightListPosAndHeavier: a node's weight-list view inverts its
// weight list (Pos(Order[k]) == k for every neighbor) and reports
// false for the node itself and every non-neighbor; and the table's
// EdgeID comparator agrees with the reference WeightKey order on every
// pair of edges, ties included.
func TestWeightListPosAndHeavier(t *testing.T) {
	for name, s := range tiedSystems(t) {
		tbl := NewTable(s)
		g := s.Graph()
		for u := 0; u < g.NumNodes(); u++ {
			wl := tbl.WeightList(s, u)
			if len(wl.Order) != g.Degree(u) {
				t.Fatalf("%s: node %d weight list has %d entries, degree %d", name, u, len(wl.Order), g.Degree(u))
			}
			for k, v := range wl.Order {
				if p, ok := wl.Pos(v); !ok || int(p) != k {
					t.Fatalf("%s: node %d Pos(%d) = %d,%v, want %d,true", name, u, v, p, ok, k)
				}
			}
			for v := 0; v < g.NumNodes(); v++ {
				if v != u && g.HasEdge(u, v) {
					continue
				}
				if _, ok := wl.Pos(v); ok {
					t.Fatalf("%s: node %d Pos(%d) reports a non-neighbor", name, u, v)
				}
			}
		}
		edges := g.Edges()
		for a := range edges {
			ka := KeyFor(s, edges[a])
			for b := range edges {
				want := ka.Heavier(KeyFor(s, edges[b]))
				if got := tbl.Heavier(graph.EdgeID(a), graph.EdgeID(b)); got != want {
					t.Fatalf("%s: Heavier(%v, %v) = %v, want %v", name, edges[a], edges[b], got, want)
				}
			}
		}
	}
}

// TestOrderKeysMatchHeavier: sorting EdgeIDs by (OrderKeys()[id], id)
// ascending gives exactly the order sorting WeightKeys by Heavier
// gives, on tables with many exact weight ties. Repair queues and the
// LIC sort order EdgeIDs this way in place of comparing WeightKeys, so
// a tie the packed key broke differently would reorder them.
func TestOrderKeysMatchHeavier(t *testing.T) {
	for name, s := range tiedSystems(t) {
		tbl := NewTable(s)
		g := s.Graph()
		ord := tbl.OrderKeys()
		ids := make([]graph.EdgeID, g.NumEdges())
		keys := make([]WeightKey, g.NumEdges())
		for i := range ids {
			ids[i] = graph.EdgeID(i)
			keys[i] = KeyFor(s, g.EdgeByID(graph.EdgeID(i)))
		}
		sort.Slice(ids, func(i, j int) bool {
			a, b := ids[i], ids[j]
			return ord[a] < ord[b] || ord[a] == ord[b] && a < b
		})
		sort.Slice(keys, func(i, j int) bool { return keys[i].Heavier(keys[j]) })
		ties := 0
		for i, id := range ids {
			if got, want := g.EdgeByID(id), (graph.Edge{U: keys[i].U, V: keys[i].V}); got != want {
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
