package matching

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) <= 1e-9 }

// randomSystem builds a G(n,p) graph with random private preferences
// and uniform quota b.
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

// clique returns an empty matching over the complete graph K_n, where
// every pair is selectable.
func clique(n int) *Matching { return NewDense(gen.Complete(n)) }

func TestMatchingAddRemove(t *testing.T) {
	m := clique(4)
	m.Add(0, 1)
	m.Add(2, 1)
	if !m.Has(1, 0) || !m.Has(1, 2) {
		t.Fatal("Has failed after Add")
	}
	if m.Size() != 2 || m.DegreeOf(1) != 2 || m.DegreeOf(3) != 0 {
		t.Fatal("sizes wrong")
	}
	if want := []graph.NodeID{0, 2}; !reflect.DeepEqual(m.Connections(1), want) {
		t.Fatalf("Connections(1) = %v", m.Connections(1))
	}
	m.Remove(1, 0)
	if m.Has(0, 1) || m.Size() != 1 || m.DegreeOf(1) != 1 {
		t.Fatal("Remove incomplete")
	}
}

func TestMatchingEdgesSorted(t *testing.T) {
	m := clique(5)
	m.Add(3, 4)
	m.Add(0, 2)
	m.Add(1, 0)
	want := []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 3, V: 4}}
	if got := m.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges = %v, want %v", got, want)
	}
}

func TestMatchingPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"self loop":     func() { clique(3).Add(1, 1) },
		"out of range":  func() { clique(3).Add(0, 3) },
		"negative":      func() { clique(3).Add(-1, 0) },
		"non-edge":      func() { NewDense(gen.Path(3)).Add(0, 2) },
		"double add":    func() { m := clique(3); m.Add(0, 1); m.Add(1, 0) },
		"remove absent": func() { clique(3).Remove(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCloneIndependent(t *testing.T) {
	m := clique(4)
	m.Add(0, 1)
	c := m.Clone()
	c.Add(2, 3)
	if m.Has(2, 3) {
		t.Fatal("Clone shares state")
	}
	if !c.Has(0, 1) {
		t.Fatal("Clone lost edges")
	}
}

func TestEqual(t *testing.T) {
	g := gen.Complete(4)
	a, b := NewDense(g), NewDense(g)
	a.Add(0, 1)
	b.Add(1, 0)
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("orientation should not matter")
	}
	b.Add(2, 3)
	if a.Equal(b) {
		t.Fatal("different sizes reported equal")
	}
	c := clique(5)
	c.Add(0, 1)
	if a.Equal(c) {
		t.Fatal("different node counts reported equal")
	}
	// Distinct graph objects compare by edges.
	d := clique(4)
	d.Add(0, 2)
	if d.Equal(a) {
		t.Fatal("different edges reported equal")
	}
	a2 := clique(4)
	a2.Add(0, 1)
	if !a2.Equal(a) {
		t.Fatal("same edges over equal graphs reported different")
	}
}

func TestValidate(t *testing.T) {
	s := randomSystem(t, 1, 8, 0.9, 2)
	g := s.Graph()
	m := NewDense(g)
	// Valid: take up to quota edges per node.
	e := g.Edges()[0]
	m.Add(e.U, e.V)
	if err := m.Validate(s); err != nil {
		t.Fatalf("valid matching rejected: %v", err)
	}
	// Non-edge selection, through a matching bound to another graph.
	bad := clique(g.NumNodes())
	found := false
	for u := 0; u < g.NumNodes() && !found; u++ {
		for v := u + 1; v < g.NumNodes(); v++ {
			if !g.HasEdge(u, v) {
				bad.Add(u, v)
				found = true
				break
			}
		}
	}
	if found {
		if err := bad.Validate(s); err == nil {
			t.Fatal("non-edge accepted")
		}
	}
	// Quota violation.
	over := NewDense(g)
	added := 0
	for _, nb := range g.Neighbors(0) {
		over.Add(0, nb)
		added++
	}
	if added > s.Quota(0) {
		if err := over.Validate(s); err == nil {
			t.Fatal("quota violation accepted")
		}
	}
	// Node count mismatch.
	if err := clique(3).Validate(s); err == nil {
		t.Fatal("node count mismatch accepted")
	}
}

// TestAssembleEqualsLIC feeds LIC's own partner lists back through
// Assemble over the equivalence corpus: the happy path must rebuild
// exactly the matching the lists came from.
func TestAssembleEqualsLIC(t *testing.T) {
	for si, s := range equivSystems(t) {
		lic := LIC(s, satisfaction.NewTable(s))
		m, err := Assemble(s, lic.Connections)
		if err != nil {
			t.Fatalf("sys%03d: %v", si, err)
		}
		if !m.Equal(lic) {
			t.Fatalf("sys%03d: assembled %v, LIC %v", si, m.Edges(), lic.Edges())
		}
	}
}

// TestAssembleRejectsMalformedLists drives every malformed-input class
// through Assemble, which must return an error and never panic. The
// graph is the 4-cycle 0–2–1–3–0.
func TestAssembleRejectsMalformedLists(t *testing.T) {
	cycle := []graph.Edge{{U: 0, V: 2}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 0, V: 3}}
	cases := []struct {
		name    string
		n       int
		edges   []graph.Edge
		b       int
		lists   [][]graph.NodeID
		wantErr string // substring; "" = must assemble
		size    int
	}{
		{"symmetric", 4, cycle, 2, [][]graph.NodeID{{2, 3}, {3, 2}, {0, 1}, {1, 0}}, "", 4},
		// Every degree is 1, as in the matching {0–2, 1–3}, yet nobody
		// lists the node that lists them.
		{"asymmetric 4-cycle", 4, cycle, 1, [][]graph.NodeID{{2}, {3}, {1}, {0}}, "does not list", 0},
		{"listed by lower endpoint only", 4, cycle, 1, [][]graph.NodeID{{2}, nil, nil, nil}, "node 0 lists 2, which does not list 0", 0},
		{"non-neighbor", 4, cycle, 1, [][]graph.NodeID{{1}, {0}, nil, nil}, "not a neighbor", 0},
		{"self loop", 4, cycle, 1, [][]graph.NodeID{{0}, nil, nil, nil}, "not a neighbor", 0},
		{"out of range", 4, cycle, 1, [][]graph.NodeID{nil, {7}, nil, nil}, "not a neighbor", 0},
		{"duplicate at lower endpoint", 4, cycle, 2, [][]graph.NodeID{{2, 2}, nil, {0}, nil}, "twice", 0},
		{"duplicate at higher endpoint", 4, cycle, 2, [][]graph.NodeID{{2}, nil, {0, 0}, nil}, "twice", 0},
		{"over quota", 4, cycle, 1, [][]graph.NodeID{{2, 3}, nil, {0}, {0}}, "quota", 0},
		{"n = 0", 0, nil, 1, nil, "", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := pref.Build(graph.MustFromEdges(tc.n, tc.edges), pref.NewRandomMetric(rng.New(1)), pref.UniformQuota(tc.b))
			if err != nil {
				t.Fatal(err)
			}
			m, err := Assemble(s, func(id graph.NodeID) []graph.NodeID { return tc.lists[id] })
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("expected a matching, got: %v", err)
				}
				if m.Size() != tc.size {
					t.Fatalf("size %d, want %d", m.Size(), tc.size)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got %v", tc.wantErr, m.Edges())
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestWeightEqualsModifiedSatisfaction pins Lemma 2's accounting
// identity: for ANY feasible matching, Σ w(i,j) over selected edges
// equals Σi S̄i — the regrouping in eq. 12.
func TestWeightEqualsModifiedSatisfaction(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		s := randomSystem(t, seed, 10, 0.5, 2)
		src := rng.New(seed ^ 0xff)
		m := RandomMaximal(s, src)
		if err := m.Validate(s); err != nil {
			t.Fatal(err)
		}
		if w, ms := m.Weight(s), m.TotalModifiedSatisfaction(s); !almostEqual(w, ms) {
			t.Fatalf("seed %d: weight %v != modified satisfaction %v", seed, w, ms)
		}
	}
}

func TestTotalSatisfactionMatchesPerNode(t *testing.T) {
	s := randomSystem(t, 4, 9, 0.6, 2)
	m := RandomMaximal(s, rng.New(8))
	per := m.PerNodeSatisfaction(s)
	var sum float64
	for _, v := range per {
		sum += v
	}
	if !almostEqual(sum, m.TotalSatisfaction(s)) {
		t.Fatal("per-node sum disagrees with total")
	}
	for i, v := range per {
		if want := satisfaction.Value(s, i, m.Connections(i)); !almostEqual(v, want) {
			t.Fatalf("node %d satisfaction %v, want %v", i, v, want)
		}
	}
}

func TestString(t *testing.T) {
	m := clique(3)
	m.Add(0, 1)
	if got := m.String(); got != "matching{edges=1}" {
		t.Fatalf("String = %q", got)
	}
}
