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

func TestRandomMaximalFeasibleAndMaximal(t *testing.T) {
	check := func(seed uint64, nRaw, bRaw uint8) bool {
		s := randomSystem(t, seed, int(nRaw)%15+3, 0.5, int(bRaw)%3+1)
		m := RandomMaximal(s, rng.New(seed+99))
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
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSelfishTopBOnlyMutualProposals(t *testing.T) {
	s := randomSystem(t, 5, 12, 0.6, 2)
	m := SelfishTopB(s)
	if err := m.Validate(s); err != nil {
		t.Fatal(err)
	}
	for _, e := range m.Edges() {
		ru, rv := s.Rank(e.U, e.V), s.Rank(e.V, e.U)
		if ru >= s.Quota(e.U) || rv >= s.Quota(e.V) {
			t.Fatalf("edge %v selected without mutual top-b interest (ranks %d,%d)", e, ru, rv)
		}
	}
	// Conversely: every mutually-top-b edge must be selected.
	for _, e := range s.Graph().Edges() {
		if s.Rank(e.U, e.V) < s.Quota(e.U) && s.Rank(e.V, e.U) < s.Quota(e.V) && !m.Has(e.U, e.V) {
			t.Fatalf("mutual edge %v not selected", e)
		}
	}
}

func TestSelfishNeverBeatsLICWeight(t *testing.T) {
	// Selfish connections are a subset of feasible edges with no
	// coordination; LIC should never have lower weight on these
	// workloads (LIC is maximal and weight-greedy).
	for seed := uint64(0); seed < 30; seed++ {
		s := randomSystem(t, seed, 14, 0.5, 2)
		tbl := satisfaction.NewTable(s)
		lic := LIC(s, tbl).Weight(s)
		selfish := SelfishTopB(s).Weight(s)
		if selfish > lic+1e-9 {
			t.Fatalf("seed %d: selfish weight %v > LIC %v", seed, selfish, lic)
		}
	}
}

func TestBestResponseConvergesOnAcyclic(t *testing.T) {
	// Acyclic systems (symmetric scores) must converge and be stable.
	for seed := uint64(0); seed < 20; seed++ {
		src := rng.New(seed)
		g := gen.GNP(src, 15, 0.4)
		s, err := pref.Build(g, pref.NewSymmetricRandomMetric(src.Split()), pref.UniformQuota(2))
		if err != nil {
			t.Fatal(err)
		}
		res := BestResponse(s, rng.New(seed+1), 100000)
		if !res.Converged {
			t.Fatalf("seed %d: best response did not converge on acyclic system", seed)
		}
		if err := res.M.Validate(s); err != nil {
			t.Fatal(err)
		}
		// Stability: no blocking pair.
		for _, e := range g.Edges() {
			if res.M.Has(e.U, e.V) {
				continue
			}
			if wouldAccept(s, res.M, e.U, e.V) && wouldAccept(s, res.M, e.V, e.U) {
				t.Fatalf("seed %d: blocking pair %v remains", seed, e)
			}
		}
	}
}

func TestBestResponseActivationCap(t *testing.T) {
	s := randomSystem(t, 3, 12, 0.6, 2)
	res := BestResponse(s, rng.New(4), 3)
	if res.Activations > 3 {
		t.Fatalf("activations %d exceeded cap", res.Activations)
	}
	if err := res.M.Validate(s); err != nil {
		t.Fatal(err)
	}
}

func TestBestResponseStableOnClassicCycle(t *testing.T) {
	// The classic cyclic triangle with b=1: dynamics oscillate; with a
	// cap they must stop and report the remaining blocking pair.
	g := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	s, err := pref.FromRanks(g,
		[][]graph.NodeID{{1, 2}, {2, 0}, {0, 1}},
		[]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	res := BestResponse(s, rng.New(7), 1000)
	// One node always stays single and prefers someone who prefers their
	// current partner less... in the 3-cycle with b=1 there is always a
	// blocking pair: dynamics cannot converge.
	if res.Converged {
		t.Fatal("cyclic triangle reported converged")
	}
	if res.Activations != 1000 {
		t.Fatalf("activations = %d, want cap 1000", res.Activations)
	}
}

func TestWorstConnectionPanicsOnUnmatched(t *testing.T) {
	s := randomSystem(t, 1, 5, 1.0, 1)
	m := NewDense(s.Graph())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	worstConnection(s, m, 0)
}
