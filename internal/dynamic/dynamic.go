// Package dynamic implements the paper's future-work extension (§7):
// handling dynamicity — joins and leaves of peers and changing
// preference lists — with the same greedy, locally-heaviest-edge
// strategy that LID/LIC use for the static problem.
//
// The model is a fixed universe graph of potential connections whose
// peers come and go: a live overlay is the subgraph induced by the
// alive nodes. Engine is the one repairer: every join, leave and
// rerank is submitted to it, and it repairs the matching locally
// instead of recomputing from scratch:
//
//   - Preemptive repair (the default) tries candidate edges heaviest
//     first and lets one displace a strictly lighter connection at a
//     full endpoint, cascading to the displaced peers. Each swap
//     strictly raises the matching's sorted weight vector, so repair
//     terminates, at the live subgraph's unique stable matching.
//   - Completion-only repair (EngineOptions.CompleteOnly) adds, heaviest
//     first, every candidate edge whose endpoints are alive and have
//     free quota, restoring the maximality LIC guarantees, and never
//     displaces an established connection.
//
// Repair is measured (edges examined ≈ message cost, edges changed)
// and judged against the fresh LIC matching of the live subgraph —
// experiment E9 steps one event per epoch under both policies and
// reports both. Preemptive repair tracks fresh LIC closely;
// completion-only repair is cheaper but drifts, which is exactly the
// trade-off the paper's future-work discussion anticipates.
package dynamic

import (
	"fmt"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
)

// EventStats reports the cost of one repair epoch.
type EventStats struct {
	Examined int // candidate edges inspected (proxy for repair messages)
	Added    int // connections created
	Removed  int // connections dropped (leave cleanup, quota cuts, preemptions)
}

// Overlay is a live matching over the alive subset of a universe
// graph. An Engine owns and repairs it; readers reach it through
// Engine.Overlay and use the read-only yardsticks below.
type Overlay struct {
	s     *pref.System
	tbl   *satisfaction.Table
	m     *matching.Matching
	alive []bool
}

// newOverlay starts an overlay with every node alive and the LIC
// matching of the full graph, the table and LIC built under `workers`
// goroutines — bit-identical to the serial build for any worker count
// (the internal/par contract).
func newOverlay(s *pref.System, workers int) *Overlay {
	tbl := satisfaction.NewTableParallel(s, workers)
	alive := make([]bool, s.Graph().NumNodes())
	for i := range alive {
		alive[i] = true
	}
	return &Overlay{
		s:     s,
		tbl:   tbl,
		m:     matching.LICParallel(s, tbl, workers),
		alive: alive,
	}
}

// Matching returns the current live matching (shared; do not modify).
func (o *Overlay) Matching() *matching.Matching { return o.m }

// System returns the current preference system.
func (o *Overlay) System() *pref.System { return o.s }

// Alive reports whether node x is currently alive.
func (o *Overlay) Alive(x graph.NodeID) bool { return o.alive[x] }

// NumAlive returns the number of alive nodes.
func (o *Overlay) NumAlive() int {
	c := 0
	for _, a := range o.alive {
		if a {
			c++
		}
	}
	return c
}

// noEdge stands for "no connection" where an EdgeID is expected.
const noEdge = graph.EdgeID(-1)

// candidate returns edge id's repair-queue entry under the current
// weight table.
func (o *Overlay) candidate(id graph.EdgeID) candidate {
	return candidate{ord: o.tbl.OrderKeys()[id], id: id}
}

// lightestEdge returns the EdgeID of x's lightest current connection by
// the weight order. It reads x's partner list in place, one EdgeIDOf
// per partner.
func (o *Overlay) lightestEdge(x graph.NodeID) graph.EdgeID {
	g := o.s.Graph()
	lightest := noEdge
	for _, v := range o.m.Partners(x) {
		id, _ := g.EdgeIDOf(x, v)
		if lightest == noEdge || o.candidate(lightest).before(o.candidate(id)) {
			lightest = id
		}
	}
	if lightest == noEdge {
		panic("dynamic: lightestEdge of unmatched node")
	}
	return lightest
}

// displaced applies the preemption rule at endpoint x of the unmatched
// edge id. x accepts id when it has free quota — it gives up nothing,
// and drop is noEdge — or when id is strictly heavier than its lightest
// connection, which is then drop. ok is false when x refuses id: its
// quota is 0, or id is not heavier than every connection it holds.
func (o *Overlay) displaced(x graph.NodeID, id graph.EdgeID) (drop graph.EdgeID, ok bool) {
	d := o.m.DegreeOf(x)
	if d < o.s.Quota(x) {
		return noEdge, true
	}
	if d == 0 {
		return noEdge, false // quota 0: can never accept
	}
	l := o.lightestEdge(x)
	return l, o.candidate(id).before(o.candidate(l))
}

// LiveLIC computes the fresh LIC matching of the live subgraph — the
// quality yardstick for repair. It runs LIC on the system induced by
// the alive nodes, in universe IDs.
func (o *Overlay) LiveLIC() (*matching.Matching, error) {
	return matching.InducedLIC(o.s, func(x graph.NodeID) bool { return o.alive[x] })
}

// LiveSatisfaction returns Σ Si over alive nodes for the current
// matching, evaluated against the live preference lists (dead
// neighbors removed from the lists, since a peer cannot rank a peer
// that is gone).
func (o *Overlay) LiveSatisfaction() float64 {
	return o.liveSatisfactionOf(o.m)
}

// liveSatisfactionOf evaluates a matching's total satisfaction against
// the live-restricted preference lists.
func (o *Overlay) liveSatisfactionOf(m *matching.Matching) float64 {
	g := o.s.Graph()
	var total float64
	for x := 0; x < g.NumNodes(); x++ {
		if !o.alive[x] {
			continue
		}
		// Rank among alive neighbors only.
		var li, rankSum float64
		rank := 0
		connRanks := make(map[graph.NodeID]int)
		for _, j := range o.s.List(x) {
			if !o.alive[j] {
				continue
			}
			connRanks[j] = rank
			rank++
		}
		li = float64(rank)
		bi := float64(o.s.Quota(x))
		if li == 0 || bi == 0 {
			continue
		}
		if bi > li {
			bi = li // quota effectively clamps to the live list length
		}
		conns := m.Connections(x)
		ci := float64(len(conns))
		for _, j := range conns {
			rankSum += float64(connRanks[j])
		}
		total += ci/bi + ci*(ci-1)/(2*bi*li) - rankSum/(bi*li)
	}
	return total
}

// QualityRatio returns current-weight / fresh-LIC-weight over the live
// subgraph (1 means repair kept up exactly; ratios can exceed 1 since
// LIC itself is only a ½-approximation).
func (o *Overlay) QualityRatio() (float64, error) {
	fresh, err := o.LiveLIC()
	if err != nil {
		return 0, err
	}
	fw := fresh.Weight(o.s)
	if fw == 0 {
		return 1, nil
	}
	return o.m.Weight(o.s) / fw, nil
}

// Validate checks the live-matching invariants: only alive endpoints,
// only graph edges, quotas respected.
func (o *Overlay) Validate() error {
	for _, e := range o.m.Edges() {
		if !o.alive[e.U] || !o.alive[e.V] {
			return fmt.Errorf("dynamic: edge %v touches a dead node", e)
		}
	}
	return o.m.Validate(o.s)
}
