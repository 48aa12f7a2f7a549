// Package satisfaction implements the paper's optimization metric (§3)
// and its static approximation (§4): node satisfaction (eq. 1), the
// per-connection satisfaction increase ΔSij and its static/dynamic
// decomposition (eq. 4, eq. 7), the modified static-only forms
// (eq. 5, 6), the symmetric edge weights that convert the modified
// problem into a many-to-many maximum weighted matching (eq. 9), and
// the proven bounds of Lemma 1 and Theorem 3.
//
// Conventions follow the paper exactly: ranks are 0-based
// (Ri(j) ∈ {0,...,|Li|−1}, 0 = most desirable), Qi(j) is j's 0-based
// position in node i's connection list ordered by decreasing
// preference, ci = |Ci| ≤ bi, and Li denotes (by abuse of notation, as
// in the paper) both the preference list and its length.
package satisfaction

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"slices"
	"sync"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/par"
	"overlaymatch/internal/pref"
)

// dupScratch is the epoch-stamped duplicate detector Value borrows per
// call (the same pattern as pref's validator): seen[r] == stamp marks
// rank r as taken in the current call, and bumping stamp invalidates
// every mark in O(1), so the slice is cleared only when it grows or the
// stamp wraps. Pooled so the hot churn/experiment loops that call Value
// per node per event stop paying a map allocation each time.
type dupScratch struct {
	seen  []uint32
	stamp uint32
}

var dupScratchPool = sync.Pool{New: func() any { return new(dupScratch) }}

// next prepares the scratch for one call needing `size` slots.
func (d *dupScratch) next(size int) {
	if cap(d.seen) < size {
		d.seen = make([]uint32, size)
		d.stamp = 0
	}
	d.seen = d.seen[:size]
	d.stamp++
	if d.stamp == 0 {
		clear(d.seen)
		d.stamp = 1
	}
}

// Value computes Si (eq. 1) for node i connected to the given
// neighbors. The connection set need not be sorted; it is ranked
// internally. Nodes with an empty preference list have satisfaction 0.
// It panics if the connections exceed the quota, repeat, or are not
// neighbors of i — callers must pass a feasible connection set.
func Value(s *pref.System, i graph.NodeID, conns []graph.NodeID) float64 {
	li := float64(s.ListLen(i))
	bi := float64(s.Quota(i))
	if li == 0 || bi == 0 {
		if len(conns) > 0 {
			panic(fmt.Sprintf("satisfaction: node %d has quota 0 but %d connections", i, len(conns)))
		}
		return 0
	}
	ci := float64(len(conns))
	if len(conns) > s.Quota(i) {
		panic(fmt.Sprintf("satisfaction: node %d has %d connections, quota %d", i, len(conns), s.Quota(i)))
	}
	// Duplicate detection rides on the ranks: Li is a strict total
	// order, so two equal connections are exactly two equal ranks. The
	// rank-indexed epoch scratch replaces the map this loop used to
	// allocate per call.
	var rankSum float64
	d := dupScratchPool.Get().(*dupScratch)
	d.next(s.ListLen(i))
	for _, j := range conns {
		r := s.Rank(i, j) // panics if j is not a neighbor
		if d.seen[r] == d.stamp {
			dupScratchPool.Put(d)
			panic(fmt.Sprintf("satisfaction: node %d connected to %d twice", i, j))
		}
		d.seen[r] = d.stamp
		rankSum += float64(r)
	}
	dupScratchPool.Put(d)
	// Eq. 1: Si = ci/bi + ci(ci−1)/(2 bi Li) − Σ Ri(j)/(bi Li).
	return ci/bi + ci*(ci-1)/(2*bi*li) - rankSum/(bi*li)
}

// Delta computes ΔSij (eq. 4): the increase in node i's satisfaction
// from taking neighbor j as its (q+1)-th best connection, where q is
// j's 0-based position Qi(j) in the final connection list. It panics if
// j is not i's neighbor or q is outside [0, bi).
func Delta(s *pref.System, i, j graph.NodeID, q int) float64 {
	bi := float64(s.Quota(i))
	li := float64(s.ListLen(i))
	if q < 0 || q >= s.Quota(i) {
		panic(fmt.Sprintf("satisfaction: connection position %d outside [0,%d)", q, s.Quota(i)))
	}
	ri := float64(s.Rank(i, j))
	// Eq. 4: ΔSij = (1 − Ri(j)/Li)/bi + Qi(j)/(bi·Li).
	return (1-ri/li)/bi + float64(q)/(bi*li)
}

// StaticDelta computes the execution-independent part of ΔSij (eq. 5):
// ΔS̄ij = (1 − Ri(j)/Li)/bi. This is the quantity peers disclose to
// each other; it never reveals the metric itself.
func StaticDelta(s *pref.System, i, j graph.NodeID) float64 {
	bi := float64(s.Quota(i))
	li := float64(s.ListLen(i))
	ri := float64(s.Rank(i, j))
	return (1 - ri/li) / bi
}

// DynamicDelta computes the execution-varying part of ΔSij (eq. 4,
// second parenthesis): Qi(j)/(bi·Li) for connection position q = Qi(j).
func DynamicDelta(s *pref.System, i graph.NodeID, q int) float64 {
	bi := float64(s.Quota(i))
	li := float64(s.ListLen(i))
	if li == 0 {
		return 0
	}
	return float64(q) / (bi * li)
}

// ModifiedValue computes S̄i (eq. 6), the static-only satisfaction:
// S̄i = ci/bi − Σ Ri(j)/(bi Li) = Σ_j ΔS̄ij.
func ModifiedValue(s *pref.System, i graph.NodeID, conns []graph.NodeID) float64 {
	li := float64(s.ListLen(i))
	bi := float64(s.Quota(i))
	if li == 0 || bi == 0 {
		return 0
	}
	if len(conns) > s.Quota(i) {
		panic(fmt.Sprintf("satisfaction: node %d has %d connections, quota %d", i, len(conns), s.Quota(i)))
	}
	var rankSum float64
	for _, j := range conns {
		rankSum += float64(s.Rank(i, j))
	}
	ci := float64(len(conns))
	return ci/bi - rankSum/(bi*li)
}

// Split returns the static and dynamic parts (Sis, Sid) of node i's
// satisfaction (eq. 7); Value(s,i,conns) == Sis + Sid up to rounding.
func Split(s *pref.System, i graph.NodeID, conns []graph.NodeID) (static, dynamic float64) {
	static = ModifiedValue(s, i, conns)
	for q := 0; q < len(conns); q++ {
		dynamic += DynamicDelta(s, i, q)
	}
	return static, dynamic
}

// sortByPreference returns conns ordered by decreasing preference of
// node i (the connection list Ci of the paper).
func sortByPreference(s *pref.System, i graph.NodeID, conns []graph.NodeID) []graph.NodeID {
	out := append([]graph.NodeID(nil), conns...)
	slices.SortFunc(out, func(a, b graph.NodeID) int {
		return s.Rank(i, a) - s.Rank(i, b)
	})
	return out
}

// ConnectionList returns Ci for node i: the connections ordered by
// decreasing preference, so that Qi(Ci[q]) = q.
func ConnectionList(s *pref.System, i graph.NodeID, conns []graph.NodeID) []graph.NodeID {
	return sortByPreference(s, i, conns)
}

// Lemma1Bound returns ½(1 + 1/b), the approximation factor the modified
// (static-only) problem guarantees for the true satisfaction objective
// when every quota is at most b (Lemma 1). It panics for b < 1.
func Lemma1Bound(b int) float64 {
	if b < 1 {
		panic("satisfaction: Lemma1Bound needs b >= 1")
	}
	return 0.5 * (1 + 1/float64(b))
}

// Theorem3Bound returns ¼(1 + 1/bmax), the end-to-end approximation
// factor of LID for the maximizing-satisfaction b-matching problem
// (Theorem 3). It panics for bmax < 1.
func Theorem3Bound(bmax int) float64 {
	if bmax < 1 {
		panic("satisfaction: Theorem3Bound needs bmax >= 1")
	}
	return 0.25 * (1 + 1/float64(bmax))
}

// EdgeWeight computes w(i,j) (eq. 9): the sum of the two endpoints'
// static satisfaction increases. Symmetric by construction.
func EdgeWeight(s *pref.System, e graph.Edge) float64 {
	return StaticDelta(s, e.U, e.V) + StaticDelta(s, e.V, e.U)
}

// ExactEdgeWeight returns w(i,j) as an exact rational
// (Li−Ri(j))/(Li·bi) + (Lj−Rj(i))/(Lj·bj), for validating the float
// total order in tests.
func ExactEdgeWeight(s *pref.System, e graph.Edge) *big.Rat {
	term := func(i, j graph.NodeID) *big.Rat {
		li := int64(s.ListLen(i))
		bi := int64(s.Quota(i))
		ri := int64(s.Rank(i, j))
		return big.NewRat(li-ri, li*bi)
	}
	return new(big.Rat).Add(term(e.U, e.V), term(e.V, e.U))
}

// WeightKey is the reference definition of the strict total order on
// edges that LIC and LID share: weight descending, ties broken by
// canonical endpoint IDs ascending. The paper assumes unique edge
// weights with "ties broken using node identities"; WeightKey spells
// that assumption out. The order is symmetric (both endpoints of an
// edge compute the same key), which is what Lemma 5's termination
// argument needs. Table stores the same order in packed form (one
// uint64 per edge, see OrderKeys); tests check it against this one.
type WeightKey struct {
	W    float64
	U, V graph.NodeID // canonical: U < V
}

// KeyFor builds the WeightKey of edge e under system s.
func KeyFor(s *pref.System, e graph.Edge) WeightKey {
	e = e.Normalize()
	return WeightKey{W: EdgeWeight(s, e), U: e.U, V: e.V}
}

// Heavier reports whether a is strictly heavier than b in the shared
// total order.
func (a WeightKey) Heavier(b WeightKey) bool {
	if a.W != b.W {
		return a.W > b.W
	}
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// Table precomputes the shared edge order for a system and the weight
// lists the LID description calls for. The order's one stored form is
// a packed order key per dense EdgeID (OrderKeys, compared by
// Heavier); the per-node weight lists and their inverse position
// tables are flat CSR-aligned arrays shared by all nodes. It is
// immutable after construction and safe for concurrent reads (the
// weight-list cache is built once, guarded by a sync.Once).
type Table struct {
	g       *graph.Graph
	ord     []uint64 // packed order keys indexed by graph.EdgeID (see OrderKeys)
	workers int      // fan-out of buildSorted (1 = the serial path)

	sortedOnce sync.Once
	sorted     [][]graph.NodeID // per-node neighbors by descending weight (views into one buffer)
	sortedInc  []graph.EdgeID   // flat, aligned with sorted: the incident EdgeID per entry
	// posInSorted is CSR-aligned with the graph's adjacency: entry
	// IncidenceOffset(u)+k is the weight-list position of neighbor
	// Neighbors(u)[k] — the inverse of sorted, as one flat array
	// instead of a map per node.
	posInSorted []int32
}

// NewTable computes weights for every edge of the system's graph on
// the calling goroutine (the workers=1 path of NewTableParallel).
func NewTable(s *pref.System) *Table { return NewTableParallel(s, 1) }

// NewTableParallel is NewTable with the per-edge weight computation
// fanned out over `workers` goroutines (0 = GOMAXPROCS) in contiguous
// EdgeID-range shards. Each shard writes only its own disjoint slice of
// the EdgeID-indexed order keys and each entry depends only on the
// immutable System, so the result is bit-identical to NewTable for any
// worker count; workers <= 1 runs the loop inline with no goroutines.
// The worker count is retained: the table's lazily-built weight lists
// (buildSorted) use the same fan-out on first access.
func NewTableParallel(s *pref.System, workers int) *Table {
	g := s.Graph()
	t := &Table{
		g:       g,
		ord:     make([]uint64, g.NumEdges()),
		workers: par.Workers(workers),
	}
	edges := g.Edges()
	par.ForEachChunk(len(edges), t.workers, func(lo, hi int) {
		for id := lo; id < hi; id++ {
			t.ord[id] = orderKey(EdgeWeight(s, edges[id]))
		}
	})
	return t
}

// orderKey maps a weight to a uint64 such that heavier sorts as
// numerically smaller: the standard monotone float64→uint64 bit
// transform, complemented. Equal weights collide, where the shared
// order falls back to canonical endpoints ascending — which for dense
// EdgeIDs is simply the smaller id (edges are stored in lexicographic
// order), so (OrderKeys()[id], id) ascending IS the total order.
func orderKey(w float64) uint64 {
	b := math.Float64bits(w)
	if b&(1<<63) != 0 {
		b = ^b
	} else {
		b |= 1 << 63
	}
	return ^b
}

// OrderKeys returns the EdgeID-aligned packed order keys: sorting
// EdgeIDs by (OrderKeys()[id], id) ascending yields exactly the
// heaviest-first total order of WeightKey.Heavier. The slice is shared
// and must not be mutated.
func (t *Table) OrderKeys() []uint64 { return t.ord }

// Heavier reports whether edge a is strictly heavier than edge b in
// the shared total order: (ord[a], a) < (ord[b], b).
func (t *Table) Heavier(a, b graph.EdgeID) bool {
	return t.ord[a] < t.ord[b] || t.ord[a] == t.ord[b] && a < b
}

// compare is Heavier as a three-way comparison for slices.SortFunc:
// negative when a is heavier, 0 only for the same edge.
func (t *Table) compare(a, b graph.EdgeID) int {
	if c := cmp.Compare(t.ord[a], t.ord[b]); c != 0 {
		return c
	}
	return cmp.Compare(a, b)
}

// SortedNeighbors returns u's neighbors ordered by decreasing edge
// weight — the node's "weight list" from §5. Lists for all nodes are
// computed once on first use and cached (protocol runs re-create their
// per-run node state, but the weight lists never change); the caller
// must not modify the result.
func (t *Table) SortedNeighbors(s *pref.System, u graph.NodeID) []graph.NodeID {
	t.buildSorted(s)
	return t.sorted[u]
}

// SortedIncident returns the EdgeIDs of u's incident edges in
// decreasing weight order, aligned with SortedNeighbors (entry k is
// the edge {u, SortedNeighbors(u)[k]}). Shared and read-only.
func (t *Table) SortedIncident(s *pref.System, u graph.NodeID) []graph.EdgeID {
	t.buildSorted(s)
	off := t.g.IncidenceOffset(u)
	return t.sortedInc[off : int(off)+t.g.Degree(u)]
}

// WeightList is one node's view of its weight list, the form every
// protocol node holds: Order is the list itself (neighbors, heaviest
// edge first; shared, read-only) and Pos inverts it. It is a value
// over the table's shared arrays, so a node keeps per-neighbor state
// in slices indexed by weight-list position and allocates no map.
type WeightList struct {
	Order []graph.NodeID
	adj   []graph.NodeID // the sorted adjacency
	pos   []int32        // pos[k] is the weight-list position of adj[k]
}

// WeightList returns u's weight-list view.
func (t *Table) WeightList(s *pref.System, u graph.NodeID) WeightList {
	t.buildSorted(s)
	off := t.g.IncidenceOffset(u)
	return WeightList{
		Order: t.sorted[u],
		adj:   t.g.Neighbors(u),
		pos:   t.posInSorted[off : int(off)+t.g.Degree(u)],
	}
}

// Pos returns v's position in the weight list: binary search in the
// sorted adjacency, then the position table. It reports false if v is
// not a neighbor.
func (w *WeightList) Pos(v graph.NodeID) (int32, bool) {
	if i, ok := slices.BinarySearch(w.adj, v); ok {
		return w.pos[i], true
	}
	return 0, false
}

// buildSorted materializes the per-node weight lists once. Node shards
// fan out over the table's worker count: every node's output region
// (its CSR slice of buf/sortedInc/posInSorted and its t.sorted entry)
// is disjoint from every other node's, each node's sort reads only the
// immutable order keys, and per-worker `perm` scratch lives at the top
// of the chunk — so the arrays are bit-identical for any worker count,
// and workers <= 1 is the serial loop.
func (t *Table) buildSorted(s *pref.System) {
	t.sortedOnce.Do(func() {
		g := s.Graph()
		n := g.NumNodes()
		total := 2 * g.NumEdges()
		buf := make([]graph.NodeID, total)
		t.sorted = make([][]graph.NodeID, n)
		t.sortedInc = make([]graph.EdgeID, total)
		t.posInSorted = make([]int32, total)
		par.ForEachChunk(n, t.workers, func(lo, hi int) {
			perm := make([]int32, g.MaxDegree())
			for v := lo; v < hi; v++ {
				off := int(g.IncidenceOffset(v))
				neigh := g.Neighbors(v)
				incident := g.IncidentEdges(v)
				p := perm[:len(neigh)]
				for i := range p {
					p[i] = int32(i)
				}
				slices.SortFunc(p, func(a, b int32) int {
					return t.compare(incident[a], incident[b])
				})
				list := buf[off : off+len(neigh)]
				for k, orig := range p {
					list[k] = neigh[orig]
					t.sortedInc[off+k] = incident[orig]
					t.posInSorted[off+int(orig)] = int32(k)
				}
				t.sorted[v] = list
			}
		})
	})
}
