// Package matching implements many-to-many matchings on preference
// systems: the Matching container with the paper's feasibility
// constraints (§2: at most bi connections per node, only graph edges),
// Assemble, the one verified path from a distributed protocol's
// per-node partner lists to a Matching, the centralized LIC algorithm (§6, Algorithm 2) in both its
// literal locally-heaviest form and the equivalent sorted-scan form,
// exact branch-and-bound oracles for the maximum-weight and
// maximum-satisfaction objectives (the OPT comparators of Theorems 2
// and 3), and the baseline strategies the experiment suite compares
// against.
package matching

import (
	"fmt"
	"math/bits"
	"sort"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/satisfaction"
)

// Matching is a set of selected edges ("connections") over a graph,
// tracked per node. The zero value is unusable; use NewDense, or
// Assemble for the outcome of a distributed protocol.
//
// Every Matching is bound to its graph: an EdgeID-indexed bitset gives
// O(log deg) membership and edge enumeration straight in canonical
// order, and the per-node connection slices (bounded by the quota)
// give degrees and partner lists. Only graph edges can be selected.
type Matching struct {
	n     int
	size  int
	conns [][]graph.NodeID

	g    *graph.Graph
	bits []uint64 // selected EdgeIDs
}

// NewDense returns an empty matching bound to g, backed by a dense
// EdgeID bitset: Add and Has run off the CSR edge index with no
// hashing and no per-edge map entries.
func NewDense(g *graph.Graph) *Matching {
	return &Matching{
		n:     g.NumNodes(),
		conns: make([][]graph.NodeID, g.NumNodes()),
		g:     g,
		bits:  make([]uint64, (g.NumEdges()+63)/64),
	}
}

// Assemble builds the matching that per-node partner lists describe:
// the outcome of a distributed protocol, where partners(u) names the
// peers node u believes it is connected to. The lists must agree with
// each other and with s — the paper's "this will happen in both
// endpoints" (§5) plus the b-matching constraints of §2. Assemble
// returns an error, never a panic, when
//
//   - a listed partner is not a neighbor,
//   - a list names the same partner twice,
//   - a pair is listed by only one of its endpoints, or
//   - a node lists more partners than its quota.
//
// partners is called once per node in ascending order. Each edge is
// added when its lower endpoint's list is read, in list order, so the
// result is the matching a hand-written assembly loop would build.
func Assemble(s *pref.System, partners func(graph.NodeID) []graph.NodeID) (*Matching, error) {
	g := s.Graph()
	m := NewDense(g)
	m.preallocate(s)
	// confirmed marks the edges the higher endpoint has listed back.
	confirmed := make([]uint64, len(m.bits))
	confirmations := 0
	for u := 0; u < m.n; u++ {
		for _, v := range partners(u) {
			id, ok := g.EdgeIDOf(u, v)
			if !ok {
				return nil, fmt.Errorf("matching: node %d lists %d, which is not a neighbor", u, v)
			}
			w, bit := id>>6, uint64(1)<<(id&63)
			switch {
			case u < v && m.bits[w]&bit != 0, u > v && confirmed[w]&bit != 0:
				return nil, fmt.Errorf("matching: node %d lists %d twice", u, v)
			case u < v:
				m.addEdgeID(id, graph.Edge{U: u, V: v})
			case m.bits[w]&bit == 0:
				return nil, fmt.Errorf("matching: node %d lists %d, which does not list %d", u, v, u)
			default:
				confirmed[w] |= bit
				confirmations++
			}
		}
		// Lower endpoints come first, so u's degree is final here.
		if d := m.DegreeOf(u); d > s.Quota(u) {
			return nil, fmt.Errorf("matching: node %d has %d partners, quota %d", u, d, s.Quota(u))
		}
	}
	if confirmations != m.size {
		for w, word := range m.bits {
			if lone := word &^ confirmed[w]; lone != 0 {
				e := g.EdgeByID(graph.EdgeID(w<<6 + bits.TrailingZeros64(lone)))
				return nil, fmt.Errorf("matching: node %d lists %d, which does not list %d", e.U, e.V, e.U)
			}
		}
	}
	return m, nil
}

// NumNodes returns the number of nodes the matching ranges over.
func (m *Matching) NumNodes() int { return m.n }

// Size returns the number of selected edges.
func (m *Matching) Size() int { return m.size }

// Has reports whether edge {u,v} is selected.
func (m *Matching) Has(u, v graph.NodeID) bool {
	id, ok := m.g.EdgeIDOf(u, v)
	return ok && m.bits[id>>6]&(1<<(id&63)) != 0
}

// Add selects edge {u,v}. It panics if {u,v} is not a graph edge (self
// loops and out-of-range nodes included) or is already selected:
// algorithms are expected to know what they add. Protocol outcomes,
// which may be malformed, go through Assemble instead.
func (m *Matching) Add(u, v graph.NodeID) {
	id, ok := m.g.EdgeIDOf(u, v)
	if !ok {
		panic(fmt.Sprintf("matching: edge (%d,%d) is not a graph edge", u, v))
	}
	if m.bits[id>>6]&(1<<(id&63)) != 0 {
		panic(fmt.Sprintf("matching: edge %v selected twice", graph.Edge{U: u, V: v}.Normalize()))
	}
	m.addEdgeID(id, graph.Edge{U: u, V: v})
}

// preallocate sizes every connection slice to its feasibility bound
// min(quota, degree) out of one flat backing array, so subsequent Adds
// never reallocate. Callers must hold the system the matching will be
// filled under.
func (m *Matching) preallocate(s *pref.System) {
	total := 0
	for i := 0; i < m.n; i++ {
		c := s.Quota(i)
		if d := m.g.Degree(i); d < c {
			c = d
		}
		total += c
	}
	buf := make([]graph.NodeID, total)
	off := 0
	for i := 0; i < m.n; i++ {
		c := s.Quota(i)
		if d := m.g.Degree(i); d < c {
			c = d
		}
		m.conns[i] = buf[off : off : off+c]
		off += c
	}
}

// addEdgeID is Add for callers that already hold the edge's id and
// endpoints (skipping the id lookup and the double-selection check —
// the algorithms in this package add each edge at most once).
func (m *Matching) addEdgeID(id graph.EdgeID, e graph.Edge) {
	m.bits[id>>6] |= 1 << (id & 63)
	m.size++
	m.conns[e.U] = append(m.conns[e.U], e.V)
	m.conns[e.V] = append(m.conns[e.V], e.U)
}

// Remove deselects edge {u,v}. It panics if the edge is not selected.
func (m *Matching) Remove(u, v graph.NodeID) {
	if !m.Has(u, v) {
		panic(fmt.Sprintf("matching: removing unselected edge %v", graph.Edge{U: u, V: v}.Normalize()))
	}
	id, _ := m.g.EdgeIDOf(u, v)
	m.bits[id>>6] &^= 1 << (id & 63)
	m.size--
	m.conns[u] = removeOne(m.conns[u], v)
	m.conns[v] = removeOne(m.conns[v], u)
}

func removeOne(s []graph.NodeID, x graph.NodeID) []graph.NodeID {
	for i, v := range s {
		if v == x {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	panic(fmt.Sprintf("matching: connection list inconsistent, %d missing", x))
}

// Connections returns the nodes matched to i, sorted ascending. The
// result is freshly allocated.
func (m *Matching) Connections(i graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), m.conns[i]...)
	sort.Ints(out)
	return out
}

// DegreeOf returns the number of connections node i holds (ci).
func (m *Matching) DegreeOf(i graph.NodeID) int { return len(m.conns[i]) }

// Edges returns the selected edges in canonical sorted order: the
// bitset walk, since ascending EdgeID is exactly canonical order.
func (m *Matching) Edges() []graph.Edge {
	out := make([]graph.Edge, 0, m.size)
	for w, word := range m.bits {
		for ; word != 0; word &= word - 1 {
			id := graph.EdgeID(w<<6 + bits.TrailingZeros64(word))
			out = append(out, m.g.EdgeByID(id))
		}
	}
	return out
}

// Clone returns a deep copy bound to the same graph.
func (m *Matching) Clone() *Matching {
	c := NewDense(m.g)
	for _, e := range m.Edges() {
		c.Add(e.U, e.V)
	}
	return c
}

// Equal reports whether two matchings select exactly the same edges,
// even when they are bound to distinct (but node-compatible) graphs.
func (m *Matching) Equal(o *Matching) bool {
	if m.n != o.n || m.size != o.size {
		return false
	}
	if m.g == o.g {
		for w, word := range m.bits {
			if word != o.bits[w] {
				return false
			}
		}
		return true
	}
	for u := 0; u < m.n; u++ {
		if len(m.conns[u]) != len(o.conns[u]) {
			return false
		}
	}
	for u := 0; u < m.n; u++ {
		for _, v := range m.conns[u] {
			if v > u && !o.Has(u, v) {
				return false
			}
		}
	}
	return true
}

// Validate checks feasibility against a preference system: every
// selected edge must be a graph edge and every node must respect its
// quota.
func (m *Matching) Validate(s *pref.System) error {
	g := s.Graph()
	if m.n != g.NumNodes() {
		return fmt.Errorf("matching: %d nodes, graph has %d", m.n, g.NumNodes())
	}
	for u := 0; u < m.n; u++ {
		for _, v := range m.conns[u] {
			if u < v && !g.HasEdge(u, v) {
				return fmt.Errorf("matching: selected non-edge %v", graph.Edge{U: u, V: v})
			}
		}
	}
	for i := 0; i < m.n; i++ {
		if len(m.conns[i]) > s.Quota(i) {
			return fmt.Errorf("matching: node %d has %d connections, quota %d",
				i, len(m.conns[i]), s.Quota(i))
		}
	}
	return nil
}

// Weight returns the matching's total eq.-9 weight under system s.
// Summation follows the canonical edge order so the result is
// bit-for-bit deterministic across runs.
func (m *Matching) Weight(s *pref.System) float64 {
	var w float64
	for _, e := range m.Edges() {
		w += satisfaction.EdgeWeight(s, e)
	}
	return w
}

// TotalSatisfaction returns Σi Si (eq. 1) under system s — the
// objective of the maximizing-satisfaction b-matching problem.
func (m *Matching) TotalSatisfaction(s *pref.System) float64 {
	var total float64
	for i := 0; i < m.n; i++ {
		total += satisfaction.Value(s, i, m.conns[i])
	}
	return total
}

// TotalModifiedSatisfaction returns Σi S̄i (eq. 6) — the objective of
// the modified (static-only) problem. By Lemma 2 this equals Weight.
func (m *Matching) TotalModifiedSatisfaction(s *pref.System) float64 {
	var total float64
	for i := 0; i < m.n; i++ {
		total += satisfaction.ModifiedValue(s, i, m.conns[i])
	}
	return total
}

// PerNodeSatisfaction returns each node's Si (eq. 1).
func (m *Matching) PerNodeSatisfaction(s *pref.System) []float64 {
	out := make([]float64, m.n)
	for i := 0; i < m.n; i++ {
		out[i] = satisfaction.Value(s, i, m.conns[i])
	}
	return out
}

// String returns e.g. "matching{edges=5}".
func (m *Matching) String() string {
	return fmt.Sprintf("matching{edges=%d}", m.size)
}
