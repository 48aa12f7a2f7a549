package matching

import (
	"fmt"
	"sort"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
)

// The exact solvers below are the OPT oracles of the experiment suite:
// Theorem 2 compares LIC against the optimal many-to-many maximum
// weighted matching, and Theorem 3 compares LID against the optimal
// maximizing-satisfaction b-matching. Both problems are solved by
// branch and bound over the edge list; this is exponential in the worst
// case and intended for the oracle sizes used in the experiments
// (tens of edges). MaxOracleEdges guards against accidental blowups.

// MaxOracleEdges is the largest edge count the exact solvers accept.
const MaxOracleEdges = 64

// MaxWeightBMatching returns an optimal solution of the many-to-many
// maximum weighted matching problem (edge weights of eq. 9, node
// capacities bi) together with its weight. It errors if the graph has
// more than MaxOracleEdges edges.
func MaxWeightBMatching(s *pref.System, tbl *satisfaction.Table) (*Matching, float64, error) {
	g := s.Graph()
	m := g.NumEdges()
	if m > MaxOracleEdges {
		return nil, 0, fmt.Errorf("matching: exact solver limited to %d edges, graph has %d", MaxOracleEdges, m)
	}
	// Heaviest-first order makes the include-branch find strong
	// incumbents early.
	order := make([]graph.EdgeID, m)
	for i := range order {
		order[i] = graph.EdgeID(i)
	}
	SortEdgeIDs(order, tbl.OrderKeys(), 1)
	sortedEdges := make([]graph.Edge, m)
	sortedW := make([]float64, m)
	for i, id := range order {
		sortedEdges[i] = g.EdgeByID(id)
		sortedW[i] = satisfaction.EdgeWeight(s, sortedEdges[i])
	}
	// suffix[k] = Σ sortedW[k:]; a cheap admissible bound.
	suffix := make([]float64, m+1)
	for k := m - 1; k >= 0; k-- {
		suffix[k] = suffix[k+1] + sortedW[k]
	}

	cap_ := make([]int, g.NumNodes())
	for i := range cap_ {
		cap_[i] = s.Quota(i)
	}

	// Incumbent: LIC, which Theorem 2 guarantees within ½ of optimal.
	best := LIC(s, tbl)
	bestW := best.Weight(s)

	chosen := make([]bool, m)
	var rec func(k int, curW float64)
	rec = func(k int, curW float64) {
		if curW > bestW {
			bestW = curW
			b := NewDense(g)
			for i, c := range chosen {
				if c {
					b.Add(sortedEdges[i].U, sortedEdges[i].V)
				}
			}
			best = b
		}
		if k == m {
			return
		}
		if curW+suffix[k] <= bestW+1e-15 {
			return // even taking everything left cannot beat the incumbent
		}
		if curW+capacityBound(sortedEdges[k:], sortedW[k:], cap_) <= bestW+1e-15 {
			return
		}
		e := sortedEdges[k]
		if cap_[e.U] > 0 && cap_[e.V] > 0 {
			cap_[e.U]--
			cap_[e.V]--
			chosen[k] = true
			rec(k+1, curW+sortedW[k])
			chosen[k] = false
			cap_[e.U]++
			cap_[e.V]++
		}
		rec(k+1, curW)
	}
	rec(0, 0)
	return best, bestW, nil
}

// capacityBound returns an admissible upper bound on the weight any
// feasible selection from the remaining edges can add: each selected
// edge contributes w/2 per endpoint, and node x can host at most
// cap_[x] more edges, so Σ over nodes of their top-cap incident
// remaining half-weights bounds the total. The remaining edges arrive
// in descending weight order, so a single pass with counters suffices.
func capacityBound(edges []graph.Edge, w []float64, cap_ []int) float64 {
	used := make(map[graph.NodeID]int, 2*len(edges))
	var bound float64
	for i, e := range edges {
		if cap_[e.U] == 0 || cap_[e.V] == 0 {
			continue
		}
		if used[e.U] < cap_[e.U] {
			used[e.U]++
			bound += w[i] / 2
		}
		if used[e.V] < cap_[e.V] {
			used[e.V]++
			bound += w[i] / 2
		}
	}
	return bound
}

// MaxSatisfactionBMatching returns an optimal solution of the
// maximizing-satisfaction b-matching problem — the paper's original
// objective, eq. 1 summed over all nodes — with its total satisfaction.
// It errors if the graph has more than MaxOracleEdges edges.
func MaxSatisfactionBMatching(s *pref.System) (*Matching, float64, error) {
	g := s.Graph()
	m := g.NumEdges()
	if m > MaxOracleEdges {
		return nil, 0, fmt.Errorf("matching: exact solver limited to %d edges, graph has %d", MaxOracleEdges, m)
	}
	edges := append([]graph.Edge(nil), g.Edges()...)
	// Heuristic order: descending eq.-9 weight, which correlates with
	// satisfaction contribution.
	sort.Slice(edges, func(a, b int) bool {
		return satisfaction.EdgeWeight(s, edges[a]) > satisfaction.EdgeWeight(s, edges[b])
	})

	n := g.NumNodes()
	cap_ := make([]int, n)
	for i := range cap_ {
		cap_[i] = s.Quota(i)
	}
	// incident[x] = indices (into edges) of x's incident edges, in scan order.
	incident := make([][]int, n)
	for idx, e := range edges {
		incident[e.U] = append(incident[e.U], idx)
		incident[e.V] = append(incident[e.V], idx)
	}

	// scanPos[e] = position of edge e in the scan order, so the bound can
	// test "still undecided" in O(1).
	scanPos := make(map[graph.Edge]int, m)
	for idx, e := range edges {
		scanPos[e] = idx
	}

	cur := NewDense(g)
	// Incumbent: start from the LIC matching (feasible and usually strong).
	tbl := satisfaction.NewTable(s)
	best := LIC(s, tbl)
	bestS := best.TotalSatisfaction(s)

	var rec func(k int)
	rec = func(k int) {
		curS := cur.TotalSatisfaction(s)
		if curS > bestS {
			bestS = curS
			best = cur.Clone()
		}
		if k == m {
			return
		}
		if upper := curS + satisfactionPotential(s, scanPos, cur, cap_, k); upper <= bestS+1e-12 {
			return
		}
		e := edges[k]
		if cap_[e.U] > 0 && cap_[e.V] > 0 {
			cap_[e.U]--
			cap_[e.V]--
			cur.Add(e.U, e.V)
			rec(k + 1)
			cur.Remove(e.U, e.V)
			cap_[e.U]++
			cap_[e.V]++
		}
		rec(k + 1)
	}
	rec(0)
	return best, bestS, nil
}

// satisfactionPotential returns an admissible upper bound on the total
// satisfaction gain available from edges[k:]: for each node
// independently it evaluates eq. 1 for the best feasible completion
// (taking its a best-ranked still-available incident edges for every
// a up to its remaining capacity) and sums the per-node gains. Ignoring
// that an edge consumes capacity at both endpoints only loosens the
// bound, so it remains admissible.
func satisfactionPotential(s *pref.System, scanPos map[graph.Edge]int, cur *Matching, cap_ []int, k int) float64 {
	g := s.Graph()
	var total float64
	for i := 0; i < g.NumNodes(); i++ {
		if cap_[i] == 0 {
			continue
		}
		li := float64(s.ListLen(i))
		bi := float64(s.Quota(i))
		ci := cur.DegreeOf(i)
		// Available ranks from the still-undecided incident edges.
		var ranks []int
		for _, nb := range g.Neighbors(i) {
			e := graph.Edge{U: i, V: nb}.Normalize()
			if scanPos[e] >= k {
				ranks = append(ranks, s.Rank(i, nb))
			}
		}
		if len(ranks) == 0 {
			continue
		}
		sort.Ints(ranks)
		// Current rank sum.
		var rs float64
		for _, j := range cur.Connections(i) {
			rs += float64(s.Rank(i, j))
		}
		base := float64(ci)/bi + float64(ci)*float64(ci-1)/(2*bi*li) - rs/(bi*li)
		bestGain := 0.0
		addRS := 0.0
		maxA := min(cap_[i], len(ranks))
		for a := 1; a <= maxA; a++ {
			addRS += float64(ranks[a-1])
			c := float64(ci + a)
			val := c/bi + c*(c-1)/(2*bi*li) - (rs+addRS)/(bi*li)
			if gain := val - base; gain > bestGain {
				bestGain = gain
			}
		}
		total += bestGain
	}
	return total
}
