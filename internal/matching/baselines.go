package matching

import (
	"overlaymatch/internal/graph"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
)

// Baseline strategies for the comparison experiment (E7). None of them
// use the paper's machinery; they bracket LID from below (random,
// selfish) and characterize prior work (best-response dynamics, which
// converges only on acyclic systems — Gai et al. [3]).

// RandomMaximal selects edges in a uniformly random order, keeping each
// one that still fits both endpoint quotas. The result is a maximal
// b-matching with no preference awareness at all.
func RandomMaximal(s *pref.System, src *rng.Source) *Matching {
	g := s.Graph()
	edges := append([]graph.Edge(nil), g.Edges()...)
	src.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	cap_ := make([]int, g.NumNodes())
	for i := range cap_ {
		cap_[i] = s.Quota(i)
	}
	m := NewDense(g)
	for _, e := range edges {
		if cap_[e.U] > 0 && cap_[e.V] > 0 {
			m.Add(e.U, e.V)
			cap_[e.U]--
			cap_[e.V]--
		}
	}
	return m
}

// SelfishTopB is the "no coordination" strategy: every node privately
// proposes to its top-bi preferred neighbors, and a connection forms
// exactly when both endpoints proposed to each other. Quotas are
// respected by construction; mutual interest is rare for scarce nodes,
// so many quota slots go unused — the coordination gap LID closes.
func SelfishTopB(s *pref.System) *Matching {
	g := s.Graph()
	n := g.NumNodes()
	proposes := make([]map[graph.NodeID]bool, n)
	for i := 0; i < n; i++ {
		proposes[i] = make(map[graph.NodeID]bool, s.Quota(i))
		list := s.List(i)
		for k := 0; k < s.Quota(i) && k < len(list); k++ {
			proposes[i][list[k]] = true
		}
	}
	m := NewDense(g)
	for _, e := range g.Edges() {
		if proposes[e.U][e.V] && proposes[e.V][e.U] {
			m.Add(e.U, e.V)
		}
	}
	return m
}

// BestResponseResult reports the outcome of BestResponse.
type BestResponseResult struct {
	M           *Matching
	Converged   bool // true if no blocking pair remained
	Activations int  // number of blocking-pair activations performed
}

// BestResponse runs blocking-pair dynamics for the b-matching
// (stable fixtures) problem: while some non-selected edge (i,j) is a
// blocking pair — each endpoint either has free quota or prefers the
// other to its worst current connection — activate it: add the edge and
// drop the worst connection at any endpoint that exceeded its quota.
// Blocking pairs are scanned in a src-shuffled order each round.
//
// On acyclic preference systems these dynamics reach a stable
// configuration (Gai et al. [3]); on cyclic systems they may oscillate
// forever, which is exactly the phenomenon motivating the paper. The
// dynamics stop after maxActivations activations and report
// Converged=false if blocking pairs remain.
func BestResponse(s *pref.System, src *rng.Source, maxActivations int) BestResponseResult {
	g := s.Graph()
	m := NewDense(g)
	edges := append([]graph.Edge(nil), g.Edges()...)
	activations := 0
	for activations < maxActivations {
		src.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		activated := false
		for _, e := range edges {
			if m.Has(e.U, e.V) {
				continue
			}
			if !wouldAccept(s, m, e.U, e.V) || !wouldAccept(s, m, e.V, e.U) {
				continue
			}
			// Activate the blocking pair.
			for _, x := range []graph.NodeID{e.U, e.V} {
				if m.DegreeOf(x) >= s.Quota(x) {
					m.Remove(x, worstConnection(s, m, x))
				}
			}
			m.Add(e.U, e.V)
			activations++
			activated = true
			if activations >= maxActivations {
				break
			}
		}
		if !activated {
			return BestResponseResult{M: m, Converged: true, Activations: activations}
		}
	}
	// One final scan to decide whether a blocking pair remains.
	for _, e := range g.Edges() {
		if !m.Has(e.U, e.V) && wouldAccept(s, m, e.U, e.V) && wouldAccept(s, m, e.V, e.U) {
			return BestResponseResult{M: m, Converged: false, Activations: activations}
		}
	}
	return BestResponseResult{M: m, Converged: true, Activations: activations}
}

// wouldAccept reports whether node i would accept a new connection to
// j: free quota, or j strictly preferred to i's worst current
// connection.
func wouldAccept(s *pref.System, m *Matching, i, j graph.NodeID) bool {
	if m.DegreeOf(i) < s.Quota(i) {
		return true
	}
	if s.Quota(i) == 0 {
		return false
	}
	return s.Rank(i, j) < s.Rank(i, worstConnection(s, m, i))
}

// worstConnection returns i's lowest-preference current connection. It
// panics if i has none.
func worstConnection(s *pref.System, m *Matching, i graph.NodeID) graph.NodeID {
	conns := m.Connections(i)
	if len(conns) == 0 {
		panic("matching: worstConnection of unmatched node")
	}
	worst := conns[0]
	for _, j := range conns[1:] {
		if s.Rank(i, j) > s.Rank(i, worst) {
			worst = j
		}
	}
	return worst
}
