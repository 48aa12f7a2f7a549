// Package variants prototypes the two algorithmic directions the
// paper's conclusion (§7) calls out:
//
//   - "give minimum satisfaction guarantees individually to each
//     collaborating peer": CoverageFirst runs the greedy in two
//     phases — first a maximal weighted 1-matching (everyone's first
//     connection), then the residual quotas — so no peer is starved of
//     its first connection by a neighbor's third.
//   - "achieve a better approximation ratio": Improve is a local
//     search pass over any feasible matching (additions plus 1-for-1
//     swaps by the shared weight order) that strictly increases weight
//     until a local optimum; experiment E13 measures how much of the
//     LIC-to-OPT gap it closes.
//
// Both are centralized prototypes; distributing them is the same open
// problem the paper leaves. They reuse the exact machinery of package
// matching, so the ablation comparisons are apples to apples.
package variants

import (
	"sort"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
)

// CoverageFirst computes a two-phase greedy matching: phase 1 is the
// LIC scan with every quota clamped to 1 (a maximal weighted
// 1-matching — everyone who can be covered is covered before anyone
// gets a second connection); phase 2 continues the LIC scan with the
// remaining per-node capacities. The result is feasible for the
// original quotas and maximal.
func CoverageFirst(s *pref.System, tbl *satisfaction.Table) *matching.Matching {
	g := s.Graph()
	edges := sortedEdges(s, tbl)

	m := matching.NewDense(g)
	// Phase 1: clamp quotas to min(1, bi).
	cap1 := make([]int, g.NumNodes())
	for i := range cap1 {
		if s.Quota(i) > 0 {
			cap1[i] = 1
		}
	}
	for _, e := range edges {
		if cap1[e.U] > 0 && cap1[e.V] > 0 {
			m.Add(e.U, e.V)
			cap1[e.U]--
			cap1[e.V]--
		}
	}
	// Phase 2: residual capacities, same scan order.
	capR := make([]int, g.NumNodes())
	for i := range capR {
		capR[i] = s.Quota(i) - m.DegreeOf(i)
	}
	for _, e := range edges {
		if !m.Has(e.U, e.V) && capR[e.U] > 0 && capR[e.V] > 0 {
			m.Add(e.U, e.V)
			capR[e.U]--
			capR[e.V]--
		}
	}
	return m
}

// sortedEdges returns the graph's edges in decreasing weight order.
func sortedEdges(s *pref.System, tbl *satisfaction.Table) []graph.Edge {
	edges := append([]graph.Edge(nil), s.Graph().Edges()...)
	sort.Slice(edges, func(a, b int) bool {
		return tbl.Key(edges[a].U, edges[a].V).Heavier(tbl.Key(edges[b].U, edges[b].V))
	})
	return edges
}

// ImproveStats reports what one Improve call did.
type ImproveStats struct {
	Additions     int
	Swaps         int
	Augmentations int // 2-for-1 moves
	Rounds        int
}

// Improve runs local search on a feasible matching until no improving
// move remains:
//
//   - addition: an unmatched edge whose endpoints both have free quota;
//   - 1-for-1 swap: replace a matched edge e by a strictly heavier
//     unmatched edge f that becomes feasible once e is removed (f and
//     e share at least one endpoint);
//   - 2-for-1 augmentation: replace a matched edge e = (a,b) by two
//     unmatched edges f at a and g at b whose combined weight exceeds
//     w(e) — the move that escapes the greedy's local optima (LIC is
//     provably stable under the first two moves alone, by Lemma 4).
//
// Every move strictly increases total weight, so the search
// terminates. The input matching is modified in place.
func Improve(s *pref.System, tbl *satisfaction.Table, m *matching.Matching) ImproveStats {
	edges := sortedEdges(s, tbl)
	var st ImproveStats
	for {
		st.Rounds++
		improved := false
		for _, f := range edges {
			if m.Has(f.U, f.V) {
				continue
			}
			uFree := m.DegreeOf(f.U) < s.Quota(f.U)
			vFree := m.DegreeOf(f.V) < s.Quota(f.V)
			if uFree && vFree {
				m.Add(f.U, f.V)
				st.Additions++
				improved = true
				continue
			}
			// Try a 1-for-1 swap: drop the lightest conflicting edge at
			// each saturated endpoint if f outweighs their sum... a
			// single-edge swap only: pick ONE saturated endpoint's
			// lightest edge e with w(f) > w(e); the other endpoint must
			// be free (otherwise removing one edge is not enough).
			if uFree != vFree {
				full := f.U
				if uFree {
					full = f.V
				}
				e := lightestAt(s, tbl, m, full)
				fk := tbl.Key(f.U, f.V)
				if fk.Heavier(tbl.Key(full, e)) {
					m.Remove(full, e)
					m.Add(f.U, f.V)
					st.Swaps++
					improved = true
				}
				continue
			}
			if !uFree && !vFree {
				// Double swap: both endpoints saturated; replace both
				// lightest edges if f is heavier than each AND the
				// total strictly increases.
				eu := lightestAt(s, tbl, m, f.U)
				ev := lightestAt(s, tbl, m, f.V)
				fk := tbl.Key(f.U, f.V)
				if (graph.Edge{U: f.U, V: eu}).Normalize() == (graph.Edge{U: f.V, V: ev}).Normalize() {
					// Same edge at both ends: removing it frees both.
					if fk.Heavier(tbl.Key(f.U, eu)) {
						m.Remove(f.U, eu)
						m.Add(f.U, f.V)
						st.Swaps++
						improved = true
					}
					continue
				}
				wf := satisfaction.EdgeWeight(s, graph.Edge{U: f.U, V: f.V}.Normalize())
				we := satisfaction.EdgeWeight(s, graph.Edge{U: f.U, V: eu}.Normalize()) +
					satisfaction.EdgeWeight(s, graph.Edge{U: f.V, V: ev}.Normalize())
				if wf > we {
					m.Remove(f.U, eu)
					m.Remove(f.V, ev)
					m.Add(f.U, f.V)
					st.Swaps++
					improved = true
				}
			}
		}
		if augment2for1(s, tbl, m, &st) {
			improved = true
		}
		if !improved {
			return st
		}
	}
}

// augment2for1 scans matched edges for a profitable 2-for-1
// replacement and applies the first found. Returns whether a move was
// applied.
func augment2for1(s *pref.System, tbl *satisfaction.Table, m *matching.Matching, st *ImproveStats) bool {
	for _, e := range m.Edges() {
		a, b := e.U, e.V
		we := satisfaction.EdgeWeight(s, e)
		// Candidate replacement edges at each endpoint: unmatched, the
		// far endpoint has free quota, and the far endpoint is not the
		// other end of e (that would re-add e). Keep the top two per
		// side to resolve shared-far-endpoint conflicts.
		candsA := topCandidates(s, tbl, m, a, b, 2)
		candsB := topCandidates(s, tbl, m, b, a, 2)
		for _, x := range candsA {
			for _, y := range candsB {
				if x == y && freeQuota(s, m, x) < 2 {
					continue
				}
				wf := satisfaction.EdgeWeight(s, (graph.Edge{U: a, V: x}).Normalize())
				wg := satisfaction.EdgeWeight(s, (graph.Edge{U: b, V: y}).Normalize())
				if wf+wg > we {
					m.Remove(a, b)
					m.Add(a, x)
					m.Add(b, y)
					st.Augmentations++
					return true
				}
			}
		}
	}
	return false
}

// topCandidates returns up to k heaviest unmatched neighbors x of node
// u with free quota, excluding the node `skip`.
func topCandidates(s *pref.System, tbl *satisfaction.Table, m *matching.Matching, u, skip graph.NodeID, k int) []graph.NodeID {
	var out []graph.NodeID
	for _, x := range tbl.SortedNeighbors(s, u) {
		if x == skip || m.Has(u, x) {
			continue
		}
		if freeQuota(s, m, x) == 0 {
			continue
		}
		out = append(out, x)
		if len(out) == k {
			break
		}
	}
	return out
}

func freeQuota(s *pref.System, m *matching.Matching, x graph.NodeID) int {
	return s.Quota(x) - m.DegreeOf(x)
}

// lightestAt returns x's lightest current connection.
func lightestAt(s *pref.System, tbl *satisfaction.Table, m *matching.Matching, x graph.NodeID) graph.NodeID {
	conns := m.Connections(x)
	lightest := conns[0]
	for _, v := range conns[1:] {
		if tbl.Key(x, lightest).Heavier(tbl.Key(x, v)) {
			lightest = v
		}
	}
	return lightest
}
