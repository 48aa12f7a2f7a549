package variants

import (
	"testing"
	"testing/quick"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/stats"
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

func TestCoverageFirstFeasibleAndMaximal(t *testing.T) {
	check := func(seed uint64, nRaw, bRaw uint8) bool {
		s := randomSystem(t, seed, int(nRaw)%15+5, 0.4, int(bRaw)%3+1)
		tbl := satisfaction.NewTable(s)
		m := CoverageFirst(s, tbl)
		if m.Validate(s) != nil {
			return false
		}
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
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestCoverageFirstPhase1Maximal: zero-connection nodes must form an
// independent set even restricted to *phase-1* availability — i.e. an
// unmatched node cannot have an unmatched neighbor.
func TestCoverageFirstCoverageProperty(t *testing.T) {
	for seed := uint64(0); seed < 30; seed++ {
		s := randomSystem(t, seed, 20, 0.4, 3)
		tbl := satisfaction.NewTable(s)
		m := CoverageFirst(s, tbl)
		for _, e := range s.Graph().Edges() {
			if m.DegreeOf(e.U) == 0 && m.DegreeOf(e.V) == 0 {
				t.Fatalf("seed %d: both %d and %d unmatched with an edge between them", seed, e.U, e.V)
			}
		}
	}
}

// TestCoverageFirstHelpsWorstOff: across many instances, the number of
// peers left with zero connections never exceeds plain LIC's and the
// worst-off satisfaction is at least as good on aggregate.
func TestCoverageFirstHelpsWorstOff(t *testing.T) {
	var covZero, licZero int
	var covMinSum, licMinSum float64
	for seed := uint64(0); seed < 40; seed++ {
		s := randomSystem(t, seed, 30, 0.2, 3)
		tbl := satisfaction.NewTable(s)
		cov := CoverageFirst(s, tbl)
		lic := matching.LIC(s, tbl)
		for i := 0; i < 30; i++ {
			if s.Graph().Degree(i) == 0 {
				continue
			}
			if cov.DegreeOf(i) == 0 {
				covZero++
			}
			if lic.DegreeOf(i) == 0 {
				licZero++
			}
		}
		covMinSum += stats.Min(cov.PerNodeSatisfaction(s))
		licMinSum += stats.Min(lic.PerNodeSatisfaction(s))
	}
	if covZero > licZero {
		t.Fatalf("coverage-first starved more peers (%d) than LIC (%d)", covZero, licZero)
	}
	t.Logf("zero-connection peers: coverage-first %d vs LIC %d; min-sat sums %.3f vs %.3f",
		covZero, licZero, covMinSum, licMinSum)
}

func TestImproveNeverDecreasesWeightAndStaysFeasible(t *testing.T) {
	check := func(seed uint64, nRaw, bRaw uint8) bool {
		s := randomSystem(t, seed, int(nRaw)%15+5, 0.4, int(bRaw)%3+1)
		tbl := satisfaction.NewTable(s)
		// Start from a deliberately bad matching: random maximal.
		m := matching.RandomMaximal(s, rng.New(seed^0xabc))
		before := m.Weight(s)
		Improve(s, tbl, m)
		if m.Validate(s) != nil {
			return false
		}
		return m.Weight(s) >= before-1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestImproveReachesLocalOptimum(t *testing.T) {
	// After Improve, a second Improve must find nothing.
	s := randomSystem(t, 5, 18, 0.4, 2)
	tbl := satisfaction.NewTable(s)
	m := matching.RandomMaximal(s, rng.New(77))
	Improve(s, tbl, m)
	st := Improve(s, tbl, m)
	if st.Additions != 0 || st.Swaps != 0 {
		t.Fatalf("second Improve still found moves: %+v", st)
	}
}

// TestImproveClosesGapTowardOptimum: on oracle-sized instances the
// improved LIC matching must be at least as close to OPT as plain LIC,
// and strictly closer summed across instances (otherwise the variant
// is pointless).
func TestImproveClosesGapTowardOptimum(t *testing.T) {
	var licSum, impSum, optSum float64
	for seed := uint64(0); seed < 40; seed++ {
		s := randomSystem(t, seed, 10, 0.4, 2)
		if s.Graph().NumEdges() > matching.MaxOracleEdges || s.Graph().NumEdges() == 0 {
			continue
		}
		tbl := satisfaction.NewTable(s)
		lic := matching.LIC(s, tbl)
		licW := lic.Weight(s)
		imp := lic.Clone()
		Improve(s, tbl, imp)
		impW := imp.Weight(s)
		if impW < licW-1e-12 {
			t.Fatalf("seed %d: Improve reduced weight", seed)
		}
		_, optW, err := matching.MaxWeightBMatching(s, tbl)
		if err != nil {
			t.Fatal(err)
		}
		licSum += licW
		impSum += impW
		optSum += optW
	}
	t.Logf("aggregate weights: LIC %.4f, LIC+Improve %.4f, OPT %.4f", licSum, impSum, optSum)
	if impSum < licSum {
		t.Fatal("improvement pass lost weight in aggregate")
	}
	if impSum > optSum+1e-9 {
		t.Fatal("improved matching exceeds the optimum — oracle or search is broken")
	}
}

// TestImproveFromEmpty: starting from the empty matching, local search
// alone must reach a maximal matching (additions suffice).
func TestImproveFromEmpty(t *testing.T) {
	s := randomSystem(t, 9, 15, 0.5, 2)
	tbl := satisfaction.NewTable(s)
	m := matching.NewDense(s.Graph())
	st := Improve(s, tbl, m)
	if st.Additions == 0 {
		t.Fatal("no additions from empty")
	}
	for _, e := range s.Graph().Edges() {
		if m.Has(e.U, e.V) {
			continue
		}
		if m.DegreeOf(e.U) < s.Quota(e.U) && m.DegreeOf(e.V) < s.Quota(e.V) {
			t.Fatal("not maximal after Improve")
		}
	}
}

func TestCoverageFirstEqualsLICWhenQuotaOne(t *testing.T) {
	// With b=1 the two phases collapse and CoverageFirst must equal LIC.
	for seed := uint64(0); seed < 20; seed++ {
		s := randomSystem(t, seed, 16, 0.4, 1)
		tbl := satisfaction.NewTable(s)
		if !CoverageFirst(s, tbl).Equal(matching.LIC(s, tbl)) {
			t.Fatalf("seed %d: b=1 coverage-first differs from LIC", seed)
		}
	}
}
