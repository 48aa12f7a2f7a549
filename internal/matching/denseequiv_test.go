package matching

import (
	"fmt"
	"sort"
	"testing"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
)

// This file is the equivalence guard for the dense CSR core: every
// algorithm that now runs over EdgeIDs, bitsets, and flat position
// tables is replayed here against a straightforward map-based
// reference reconstructed purely from the public API — the shape the
// code had before the refactor. Divergence anywhere (edge sets, quota
// use, weights, table keys) fails the test with the offending system's
// construction parameters.

// refLIC is the pre-refactor sorted-scan LIC: WeightKey structs sorted
// by Heavier, greedy selection through the public Add.
func refLIC(s *pref.System) *Matching {
	g := s.Graph()
	keys := make([]satisfaction.WeightKey, 0, g.NumEdges())
	for _, e := range g.Edges() {
		keys = append(keys, satisfaction.KeyFor(s, e))
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].Heavier(keys[b]) })
	counter := make([]int, g.NumNodes())
	for i := range counter {
		counter[i] = s.Quota(i)
	}
	m := NewDense(g)
	for _, k := range keys {
		if counter[k.U] > 0 && counter[k.V] > 0 {
			m.Add(k.U, k.V)
			counter[k.U]--
			counter[k.V]--
		}
	}
	return m
}

// refLICLiteral is the pre-refactor literal Algorithm 2: the pool is a
// map keyed by normalized edge, and every iteration rescans it for the
// locally heaviest edges (candidates collected in canonical
// lexicographic order, so rng consumption matches LICLiteral's
// ascending-EdgeID bitset walk draw for draw).
func refLICLiteral(s *pref.System, src *rng.Source) *Matching {
	g := s.Graph()
	pool := make(map[graph.Edge]bool, g.NumEdges())
	for _, e := range g.Edges() {
		pool[e] = true
	}
	heaviestFor := func(x graph.NodeID) (best satisfaction.WeightKey, ok bool) {
		for _, v := range g.Neighbors(x) {
			e := graph.Edge{U: x, V: v}.Normalize()
			if !pool[e] {
				continue
			}
			k := satisfaction.KeyFor(s, e)
			if !ok || k.Heavier(best) {
				best, ok = k, true
			}
		}
		return best, ok
	}
	counter := make([]int, g.NumNodes())
	for i := range counter {
		counter[i] = s.Quota(i)
	}
	m := NewDense(g)
	for len(pool) > 0 {
		var cands []graph.Edge
		for _, e := range g.Edges() { // canonical order
			if !pool[e] {
				continue
			}
			k := satisfaction.KeyFor(s, e)
			bu, _ := heaviestFor(e.U)
			bv, _ := heaviestFor(e.V)
			if bu == k && bv == k {
				cands = append(cands, e)
			}
		}
		e := cands[src.Intn(len(cands))]
		m.Add(e.U, e.V)
		counter[e.U]--
		counter[e.V]--
		delete(pool, e)
		for _, x := range [2]graph.NodeID{e.U, e.V} {
			if counter[x] == 0 {
				for _, v := range g.Neighbors(x) {
					delete(pool, graph.Edge{U: x, V: v}.Normalize())
				}
			}
		}
	}
	return m
}

// equivSystems enumerates the guard corpus: three generator families ×
// quotas 1..4 × 51 seeds — 204 systems in total.
func equivSystems(tb testing.TB) []*pref.System {
	tb.Helper()
	var out []*pref.System
	build := func(g *graph.Graph, src *rng.Source, b int) {
		s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(b))
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, s)
	}
	for b := 1; b <= 4; b++ {
		for seed := uint64(0); seed < 51; seed++ {
			src := rng.New(seed*31 + uint64(b))
			n := 8 + int(seed%12)*2
			switch seed % 3 {
			case 0:
				build(gen.GNP(src, n, 0.4), src, b)
			case 1:
				g, _ := gen.Geometric(src, n, 0.5)
				build(g, src, b)
			default:
				build(gen.BarabasiAlbert(src, n, 2), src, b)
			}
		}
	}
	return out
}

func TestDenseCoreEquivalence(t *testing.T) {
	systems := equivSystems(t)
	if len(systems) < 200 {
		t.Fatalf("guard corpus too small: %d systems", len(systems))
	}
	for si, s := range systems {
		si, s := si, s
		t.Run(fmt.Sprintf("sys%03d", si), func(t *testing.T) {
			g := s.Graph()
			tbl := satisfaction.NewTable(s)
			// The table's order must equal an independent per-edge
			// recompute: sorted by (ord, id), each edge is strictly
			// heavier than the next under the reference WeightKey.
			ids := make([]graph.EdgeID, g.NumEdges())
			for i := range ids {
				ids[i] = graph.EdgeID(i)
			}
			SortEdgeIDs(ids, tbl.OrderKeys(), 1)
			for i := 1; i < len(ids); i++ {
				prev, cur := g.EdgeByID(ids[i-1]), g.EdgeByID(ids[i])
				if !satisfaction.KeyFor(s, prev).Heavier(satisfaction.KeyFor(s, cur)) {
					t.Fatalf("table orders %v before %v, against the reference order", prev, cur)
				}
			}
			// Dense sorted-scan LIC vs map-based reference.
			dense := LIC(s, tbl)
			ref := refLIC(s)
			if !dense.Equal(ref) {
				t.Fatalf("LIC diverged: dense %v, ref %v", dense.Edges(), ref.Edges())
			}
			if dw, rw := dense.Weight(s), ref.Weight(s); dw != rw {
				t.Fatalf("LIC weight diverged: %v vs %v", dw, rw)
			}
			// Incremental literal vs rescanning literal, same rng seed —
			// the candidate orders must agree draw for draw.
			seed := uint64(si)*7 + 1
			lit := LICLiteral(s, tbl, rng.New(seed))
			refLit := refLICLiteral(s, rng.New(seed))
			if !lit.Equal(refLit) {
				t.Fatalf("LICLiteral diverged: dense %v, ref %v", lit.Edges(), refLit.Edges())
			}
			if !lit.Equal(dense) {
				t.Fatalf("Lemma 6 violated: literal %v, LIC %v", lit.Edges(), dense.Edges())
			}
		})
	}
}

// TestMatchingAllocBudget pins the per-operation allocation counts the
// dense representations were built for: adding to a dense matching
// allocates only for connection-slice growth (amortized ≤ 2 slices per
// Add), and building the weight table allocates nothing per edge
// beyond its two flat arrays.
func TestMatchingAllocBudget(t *testing.T) {
	s := randomSystem(t, 99, 60, 0.4, 2)
	g := s.Graph()
	edges := g.Edges()
	if avg := testing.AllocsPerRun(50, func() {
		m := NewDense(g)
		for _, e := range edges {
			m.Add(e.U, e.V)
		}
	}); avg > float64(2+2*len(edges)) {
		t.Fatalf("dense Add loop allocates %v per run for %d edges", avg, len(edges))
	}
	if avg := testing.AllocsPerRun(20, func() {
		satisfaction.NewTable(s)
	}); avg > 4 {
		t.Fatalf("NewTable allocates %v per run, want ≤ 4", avg)
	}
}
