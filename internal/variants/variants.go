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
	ids := sortedEdges(s, tbl)

	m := matching.NewDense(g)
	// Phase 1: clamp quotas to min(1, bi).
	room := make([]int, g.NumNodes())
	for i := range room {
		room[i] = min(s.Quota(i), 1)
	}
	m.Fill(ids, room)
	// Phase 2: residual capacities, same scan order.
	for i := range room {
		room[i] = s.Quota(i) - m.DegreeOf(i)
	}
	m.Fill(ids, room)
	return m
}

// sortedEdges returns the graph's EdgeIDs in the shared heaviest-first
// order.
func sortedEdges(s *pref.System, tbl *satisfaction.Table) []graph.EdgeID {
	ids := make([]graph.EdgeID, s.Graph().NumEdges())
	for i := range ids {
		ids[i] = graph.EdgeID(i)
	}
	matching.SortEdgeIDs(ids, tbl.OrderKeys(), 1)
	return ids
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
	g := s.Graph()
	ids := sortedEdges(s, tbl)
	var st ImproveStats
	for {
		st.Rounds++
		improved := false
		for _, fid := range ids {
			if m.HasID(fid) {
				continue
			}
			f := g.EdgeByID(fid)
			uFree := m.DegreeOf(f.U) < s.Quota(f.U)
			vFree := m.DegreeOf(f.V) < s.Quota(f.V)
			if uFree && vFree {
				m.AddID(fid)
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
				eid := lightestAt(g, tbl, m, full)
				if tbl.Heavier(fid, eid) {
					m.RemoveID(eid)
					m.AddID(fid)
					st.Swaps++
					improved = true
				}
				continue
			}
			if !uFree && !vFree {
				// Double swap: both endpoints saturated; replace both
				// lightest edges if f is heavier than each AND the
				// total strictly increases.
				euid := lightestAt(g, tbl, m, f.U)
				evid := lightestAt(g, tbl, m, f.V)
				if euid == evid {
					// Same edge at both ends: removing it frees both.
					if tbl.Heavier(fid, euid) {
						m.RemoveID(euid)
						m.AddID(fid)
						st.Swaps++
						improved = true
					}
					continue
				}
				wf := satisfaction.EdgeWeight(s, f)
				we := satisfaction.EdgeWeight(s, g.EdgeByID(euid)) +
					satisfaction.EdgeWeight(s, g.EdgeByID(evid))
				if wf > we {
					m.RemoveID(euid)
					m.RemoveID(evid)
					m.AddID(fid)
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

// lightestAt returns the edge of x's lightest current connection.
func lightestAt(g *graph.Graph, tbl *satisfaction.Table, m *matching.Matching, x graph.NodeID) graph.EdgeID {
	lightest := graph.EdgeID(-1)
	for _, v := range m.Partners(x) {
		id, _ := g.EdgeIDOf(x, v)
		if lightest < 0 || tbl.Heavier(lightest, id) {
			lightest = id
		}
	}
	return lightest
}
