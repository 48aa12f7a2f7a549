package matching

import (
	"testing"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
)

// bruteForce enumerates every subset of edges (m ≤ 20) and returns the
// best feasible value under the given objective.
func bruteForce(s *pref.System, objective func(*Matching) float64) float64 {
	g := s.Graph()
	edges := g.Edges()
	m := len(edges)
	if m > 20 {
		panic("bruteForce limited to 20 edges")
	}
	best := 0.0
	for mask := 0; mask < 1<<m; mask++ {
		mm := NewDense(g)
		feasible := true
		for k := 0; k < m && feasible; k++ {
			if mask&(1<<k) == 0 {
				continue
			}
			e := edges[k]
			if mm.DegreeOf(e.U) >= s.Quota(e.U) || mm.DegreeOf(e.V) >= s.Quota(e.V) {
				feasible = false
				break
			}
			mm.Add(e.U, e.V)
		}
		if !feasible {
			continue
		}
		if v := objective(mm); v > best {
			best = v
		}
	}
	return best
}

func smallSystem(tb testing.TB, seed uint64, n int, b int) *pref.System {
	tb.Helper()
	src := rng.New(seed)
	// Keep m ≤ 20 for brute force: n ≤ 8, p tuned low.
	g := gen.GNP(src, n, 0.45)
	for g.NumEdges() > 20 {
		src = rng.New(seed * 31)
		g = gen.GNP(src, n, 0.3)
		break
	}
	s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(b))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func TestMaxWeightMatchesBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		for _, b := range []int{1, 2, 3} {
			s := smallSystem(t, seed, 7, b)
			if s.Graph().NumEdges() > 20 {
				continue
			}
			tbl := satisfaction.NewTable(s)
			m, w, err := MaxWeightBMatching(s, tbl)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(s); err != nil {
				t.Fatalf("seed %d b %d: infeasible optimum: %v", seed, b, err)
			}
			if !almostEqual(w, m.Weight(s)) {
				t.Fatalf("seed %d b %d: reported weight %v != recomputed %v", seed, b, w, m.Weight(s))
			}
			want := bruteForce(s, func(mm *Matching) float64 { return mm.Weight(s) })
			if !almostEqual(w, want) {
				t.Fatalf("seed %d b %d: B&B weight %v, brute force %v", seed, b, w, want)
			}
		}
	}
}

func TestMaxSatisfactionMatchesBruteForce(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		for _, b := range []int{1, 2} {
			s := smallSystem(t, seed, 7, b)
			if s.Graph().NumEdges() > 20 {
				continue
			}
			m, v, err := MaxSatisfactionBMatching(s)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Validate(s); err != nil {
				t.Fatalf("seed %d b %d: infeasible optimum: %v", seed, b, err)
			}
			if !almostEqual(v, m.TotalSatisfaction(s)) {
				t.Fatalf("seed %d b %d: reported %v != recomputed %v", seed, b, v, m.TotalSatisfaction(s))
			}
			want := bruteForce(s, func(mm *Matching) float64 { return mm.TotalSatisfaction(s) })
			if !almostEqual(v, want) {
				t.Fatalf("seed %d b %d: B&B satisfaction %v, brute force %v", seed, b, v, want)
			}
		}
	}
}

// TestTheorem2Ratio: LIC weight ≥ ½ · optimal weight, on every
// instance the oracle can certify.
func TestTheorem2Ratio(t *testing.T) {
	worst := 1.0
	for seed := uint64(0); seed < 60; seed++ {
		for _, b := range []int{1, 2, 3} {
			s := randomSystem(t, seed, 10, 0.4, b)
			if s.Graph().NumEdges() > 28 {
				continue
			}
			tbl := satisfaction.NewTable(s)
			lic := LIC(s, tbl).Weight(s)
			_, opt, err := MaxWeightBMatching(s, tbl)
			if err != nil {
				t.Fatal(err)
			}
			if opt == 0 {
				continue
			}
			ratio := lic / opt
			if ratio < 0.5-1e-9 {
				t.Fatalf("seed %d b %d: LIC/OPT = %v < 1/2", seed, b, ratio)
			}
			if ratio < worst {
				worst = ratio
			}
		}
	}
	t.Logf("worst observed LIC/OPT weight ratio: %.4f", worst)
}

// TestTheorem3Ratio: LIC (≡ LID) total satisfaction ≥ ¼(1+1/bmax) ·
// optimal total satisfaction.
func TestTheorem3Ratio(t *testing.T) {
	worst := 1.0
	for seed := uint64(0); seed < 40; seed++ {
		for _, b := range []int{1, 2, 3} {
			s := randomSystem(t, seed, 9, 0.4, b)
			if s.Graph().NumEdges() > 22 {
				continue
			}
			tbl := satisfaction.NewTable(s)
			licSat := LIC(s, tbl).TotalSatisfaction(s)
			_, opt, err := MaxSatisfactionBMatching(s)
			if err != nil {
				t.Fatal(err)
			}
			if opt == 0 {
				continue
			}
			bound := satisfaction.Theorem3Bound(s.MaxQuota())
			ratio := licSat / opt
			if ratio < bound-1e-9 {
				t.Fatalf("seed %d b %d: satisfaction ratio %v < bound %v", seed, b, ratio, bound)
			}
			if ratio < worst {
				worst = ratio
			}
		}
	}
	t.Logf("worst observed satisfaction ratio: %.4f", worst)
}

// TestLemma2Equivalence: the weight-optimal matching is also optimal
// for the modified satisfaction objective, and the two optimal values
// coincide (lemma 2's two directions).
func TestLemma2Equivalence(t *testing.T) {
	for seed := uint64(0); seed < 15; seed++ {
		s := smallSystem(t, seed, 7, 2)
		if s.Graph().NumEdges() > 18 {
			continue
		}
		tbl := satisfaction.NewTable(s)
		_, wOpt, err := MaxWeightBMatching(s, tbl)
		if err != nil {
			t.Fatal(err)
		}
		modOpt := bruteForce(s, func(mm *Matching) float64 { return mm.TotalModifiedSatisfaction(s) })
		if !almostEqual(wOpt, modOpt) {
			t.Fatalf("seed %d: weight optimum %v != modified satisfaction optimum %v", seed, wOpt, modOpt)
		}
	}
}

// TestLemma1Ratio: the satisfaction of the modified-objective optimum
// is at least ½(1+1/bmax) of the true satisfaction optimum.
func TestLemma1Ratio(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		for _, b := range []int{1, 2, 3} {
			s := smallSystem(t, seed, 7, b)
			if s.Graph().NumEdges() > 18 {
				continue
			}
			tbl := satisfaction.NewTable(s)
			modM, _, err := MaxWeightBMatching(s, tbl) // = modified optimum (Lemma 2)
			if err != nil {
				t.Fatal(err)
			}
			_, satOpt, err := MaxSatisfactionBMatching(s)
			if err != nil {
				t.Fatal(err)
			}
			if satOpt == 0 {
				continue
			}
			ratio := modM.TotalSatisfaction(s) / satOpt
			if bound := satisfaction.Lemma1Bound(s.MaxQuota()); ratio < bound-1e-9 {
				t.Fatalf("seed %d b %d: Lemma1 ratio %v < bound %v", seed, b, ratio, bound)
			}
		}
	}
}

func TestOracleRejectsHugeGraphs(t *testing.T) {
	s := randomSystem(t, 1, 40, 0.5, 2)
	if s.Graph().NumEdges() <= MaxOracleEdges {
		t.Skip("graph unexpectedly small")
	}
	tbl := satisfaction.NewTable(s)
	if _, _, err := MaxWeightBMatching(s, tbl); err == nil {
		t.Fatal("weight oracle accepted a huge graph")
	}
	if _, _, err := MaxSatisfactionBMatching(s); err == nil {
		t.Fatal("satisfaction oracle accepted a huge graph")
	}
}

func TestOracleEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(3).MustGraph()
	s, err := pref.Build(g, pref.MetricFunc(func(i, j graph.NodeID) float64 { return 0 }), pref.UniformQuota(1))
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTable(s)
	if _, w, err := MaxWeightBMatching(s, tbl); err != nil || w != 0 {
		t.Fatalf("empty graph weight oracle: %v, %v", w, err)
	}
	if _, v, err := MaxSatisfactionBMatching(s); err != nil || v != 0 {
		t.Fatalf("empty graph satisfaction oracle: %v, %v", v, err)
	}
}
