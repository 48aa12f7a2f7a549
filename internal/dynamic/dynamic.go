// Package dynamic implements the paper's future-work extension (§7):
// handling dynamicity — joins and leaves of peers and changing
// preference lists — with the same greedy, locally-heaviest-edge
// strategy that LID/LIC use for the static problem.
//
// The model is a fixed universe graph of potential connections whose
// peers come and go: a live overlay is the subgraph induced by the
// alive nodes. On every event the overlay repairs its matching
// locally instead of recomputing from scratch:
//
//   - Completion repair adds, heaviest first, every unmatched edge
//     whose endpoints are alive and have free quota — restoring the
//     maximality LIC guarantees.
//   - Preemptive repair (Policy PreemptLighter) additionally lets a
//     candidate edge displace a strictly lighter connection at a full
//     endpoint, cascading until no displacement applies. Each swap
//     strictly increases total weight, so repair terminates.
//
// Repair is measured (edges examined ≈ message cost, edges changed)
// and judged against the fresh LIC matching of the live subgraph —
// experiment E9 reports both. Preemptive repair tracks fresh LIC
// closely; completion-only repair is cheaper but drifts, which is
// exactly the trade-off the paper's future-work discussion anticipates.
package dynamic

import (
	"container/heap"
	"fmt"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
)

// Policy selects the repair strategy.
type Policy int

const (
	// CompleteOnly restores maximality but never displaces an
	// established connection.
	CompleteOnly Policy = iota
	// PreemptLighter also displaces strictly lighter connections,
	// cascading repairs to the displaced peers.
	PreemptLighter
)

// EventStats reports the cost of one churn event's repair.
type EventStats struct {
	Examined int // candidate edges inspected (proxy for repair messages)
	Added    int // connections created
	Removed  int // connections dropped (leave cleanup + preemptions)
}

// Overlay is a live matching over the alive subset of a universe
// graph, repaired incrementally under churn.
type Overlay struct {
	s      *pref.System
	tbl    *satisfaction.Table
	m      *matching.Matching
	alive  []bool
	policy Policy
}

// NewOverlay starts an overlay with every node alive and the LIC
// matching of the full graph.
func NewOverlay(s *pref.System, policy Policy) *Overlay {
	tbl := satisfaction.NewTable(s)
	alive := make([]bool, s.Graph().NumNodes())
	for i := range alive {
		alive[i] = true
	}
	return &Overlay{
		s:      s,
		tbl:    tbl,
		m:      matching.LIC(s, tbl),
		alive:  alive,
		policy: policy,
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

// Leave removes node x from the overlay: its connections are dropped
// and the freed partners repair locally. It panics if x is not alive.
func (o *Overlay) Leave(x graph.NodeID) EventStats {
	if !o.alive[x] {
		panic(fmt.Sprintf("dynamic: Leave of dead node %d", x))
	}
	o.alive[x] = false
	var st EventStats
	freed := o.m.Connections(x)
	for _, v := range freed {
		o.m.Remove(x, v)
		st.Removed++
	}
	o.repair(freed, &st)
	return st
}

// Join restores node x to the overlay and repairs around it. It panics
// if x is already alive.
func (o *Overlay) Join(x graph.NodeID) EventStats {
	if o.alive[x] {
		panic(fmt.Sprintf("dynamic: Join of alive node %d", x))
	}
	o.alive[x] = true
	var st EventStats
	o.repair([]graph.NodeID{x}, &st)
	return st
}

// SetSystem replaces the preference system (same graph required) after
// some nodes changed their preference lists or quotas, then repairs
// around the dirty nodes. Connections that now exceed a reduced quota
// are dropped lightest-first before repair.
func (o *Overlay) SetSystem(s2 *pref.System, dirty []graph.NodeID) EventStats {
	if s2.Graph() != o.s.Graph() {
		panic("dynamic: SetSystem requires the same underlying graph")
	}
	o.s = s2
	o.tbl = satisfaction.NewTable(s2)
	var st EventStats
	seeds := append([]graph.NodeID(nil), dirty...)
	for _, x := range dirty {
		for o.m.DegreeOf(x) > s2.Quota(x) {
			v := o.lightestConnection(x)
			o.m.Remove(x, v)
			st.Removed++
			seeds = append(seeds, v)
		}
	}
	o.repair(seeds, &st)
	return st
}

// lightestConnection returns x's lightest current connection by the
// weight order.
func (o *Overlay) lightestConnection(x graph.NodeID) graph.NodeID {
	conns := o.m.Connections(x)
	if len(conns) == 0 {
		panic("dynamic: lightestConnection of unmatched node")
	}
	lightest := conns[0]
	for _, v := range conns[1:] {
		if o.tbl.Key(x, lightest).Heavier(o.tbl.Key(x, v)) {
			lightest = v
		}
	}
	return lightest
}

// candidateHeap orders candidate edges heaviest-first.
type candidateHeap struct {
	keys []satisfaction.WeightKey
}

func (h candidateHeap) Len() int            { return len(h.keys) }
func (h candidateHeap) Less(i, j int) bool  { return h.keys[i].Heavier(h.keys[j]) }
func (h candidateHeap) Swap(i, j int)       { h.keys[i], h.keys[j] = h.keys[j], h.keys[i] }
func (h *candidateHeap) Push(x interface{}) { h.keys = append(h.keys, x.(satisfaction.WeightKey)) }
func (h *candidateHeap) Pop() interface{} {
	old := h.keys
	n := len(old)
	k := old[n-1]
	h.keys = old[:n-1]
	return k
}

// repair processes the seed nodes: every edge incident to a seed is a
// candidate; candidates are tried heaviest-first; preemption (if the
// policy allows) re-seeds the displaced partner.
func (o *Overlay) repair(seeds []graph.NodeID, st *EventStats) {
	g := o.s.Graph()
	h := &candidateHeap{}
	pushed := make(map[graph.Edge]bool)
	pushNode := func(x graph.NodeID) {
		if !o.alive[x] {
			return
		}
		for _, nb := range g.Neighbors(x) {
			e := graph.Edge{U: x, V: nb}.Normalize()
			if !pushed[e] {
				pushed[e] = true
				heap.Push(h, o.tbl.Key(e.U, e.V))
			}
		}
	}
	for _, x := range seeds {
		pushNode(x)
	}
	for h.Len() > 0 {
		k := heap.Pop(h).(satisfaction.WeightKey)
		e := k.Edge()
		st.Examined++
		if !o.alive[e.U] || !o.alive[e.V] || o.m.Has(e.U, e.V) {
			continue
		}
		uFree := o.m.DegreeOf(e.U) < o.s.Quota(e.U)
		vFree := o.m.DegreeOf(e.V) < o.s.Quota(e.V)
		if uFree && vFree {
			o.m.Add(e.U, e.V)
			st.Added++
			continue
		}
		if o.policy != PreemptLighter {
			continue
		}
		// Preemption: e must be heavier than the lightest connection at
		// every full endpoint; displace those, re-seed their partners.
		var drops []graph.Edge
		ok := true
		for _, x := range []graph.NodeID{e.U, e.V} {
			if o.m.DegreeOf(x) < o.s.Quota(x) {
				continue
			}
			l := o.lightestConnection(x)
			if !k.Heavier(o.tbl.Key(x, l)) {
				ok = false
				break
			}
			drops = append(drops, graph.Edge{U: x, V: l})
		}
		if !ok {
			continue
		}
		if swapHook != nil {
			dk := make([]satisfaction.WeightKey, 0, len(drops))
			for _, d := range drops {
				if o.m.Has(d.U, d.V) {
					dk = append(dk, o.tbl.Key(d.U, d.V))
				}
			}
			swapHook(k, dk)
		}
		for _, d := range drops {
			if o.m.Has(d.U, d.V) { // both endpoints full with the same lightest edge
				o.m.Remove(d.U, d.V)
				st.Removed++
				// Re-seed the displaced partner: allow its edges to be
				// reconsidered, including ones popped earlier.
				partner := d.V
				for _, nb := range g.Neighbors(partner) {
					pe := graph.Edge{U: partner, V: nb}.Normalize()
					if !o.m.Has(pe.U, pe.V) {
						heap.Push(h, o.tbl.Key(pe.U, pe.V))
					}
				}
			}
		}
		o.m.Add(e.U, e.V)
		st.Added++
	}
}

// LiveLIC computes the fresh LIC matching of the live subgraph — the
// quality yardstick for repair. It builds the induced subgraph,
// re-derives preference lists restricted to alive neighbors, runs LIC,
// and maps the result back to universe IDs.
func (o *Overlay) LiveLIC() (*matching.Matching, error) {
	g := o.s.Graph()
	var keep []graph.NodeID
	for x := 0; x < g.NumNodes(); x++ {
		if o.alive[x] {
			keep = append(keep, x)
		}
	}
	sub, back, err := g.Subgraph(keep)
	if err != nil {
		return nil, err
	}
	fwd := make(map[graph.NodeID]int, len(back))
	for newID, oldID := range back {
		fwd[oldID] = newID
	}
	lists := make([][]graph.NodeID, sub.NumNodes())
	quotas := make([]int, sub.NumNodes())
	for newID, oldID := range back {
		for _, j := range o.s.List(oldID) {
			if o.alive[j] {
				lists[newID] = append(lists[newID], fwd[j])
			}
		}
		quotas[newID] = o.s.Quota(oldID)
	}
	s2, err := pref.FromRanks(sub, lists, quotas)
	if err != nil {
		return nil, err
	}
	subM := matching.LIC(s2, satisfaction.NewTable(s2))
	m := matching.NewDense(g)
	for _, e := range subM.Edges() {
		m.Add(back[e.U], back[e.V])
	}
	return m, nil
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
