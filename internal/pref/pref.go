// Package pref implements the preference systems of the paper's problem
// model (§2): each node i keeps a strict preference list Li ranking its
// whole neighborhood Γi (rank Ri(j) ∈ {0,...,|Li|−1}, 0 = most
// desirable) and a connection quota bi ≤ |Li|. Preference lists are
// private to each node; algorithms only ever learn the derived
// satisfaction increases (package satisfaction).
//
// The package also implements the suitability metrics the paper's
// introduction motivates (distance, interests, recommendations /
// transaction history, available resources, or any private choice), and
// the acyclicity test of Gai et al. [3], which characterizes the
// instances for which prior work could guarantee stabilization — the
// paper's algorithms need no such restriction, and the experiment suite
// uses the test to partition workloads.
package pref

import (
	"fmt"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/par"
)

// System holds the preference lists and quotas of every node of a
// graph. Construct one with Build, FromRanks, or Random; a System is
// immutable afterwards and safe for concurrent reads.
type System struct {
	g     *graph.Graph
	lists [][]graph.NodeID // lists[i] = Li: neighbors in decreasing desirability
	// rank is one flat array aligned with the graph's CSR adjacency:
	// rank[off(i)+k] = Ri(adj(i)[k]), where off is the graph's incidence
	// offset and adj(i) the sorted neighbor list. Lookups go through
	// graph.NeighborIndex (O(log deg)) instead of a per-node map.
	rank  []int32
	quota []int
}

// Graph returns the underlying graph.
func (s *System) Graph() *graph.Graph { return s.g }

// List returns node i's preference list, most desirable first. The
// returned slice is shared and must not be modified.
func (s *System) List(i graph.NodeID) []graph.NodeID { return s.lists[i] }

// ListLen returns |Li|, the length of node i's preference list, which
// equals deg(i) because lists rank the full neighborhood.
func (s *System) ListLen(i graph.NodeID) int { return len(s.lists[i]) }

// Rank returns Ri(j), node j's rank in node i's preference list
// (0 = best). It panics if j is not a neighbor of i.
func (s *System) Rank(i, j graph.NodeID) int {
	k, ok := s.g.NeighborIndex(i, j)
	if !ok {
		panic(fmt.Sprintf("pref: node %d is not in node %d's preference list", j, i))
	}
	return int(s.rank[s.g.IncidenceOffset(i)+int32(k)])
}

// Quota returns bi, node i's connection quota.
func (s *System) Quota(i graph.NodeID) int { return s.quota[i] }

// MaxQuota returns bmax = max_i bi (0 for an empty graph).
func (s *System) MaxQuota() int {
	bmax := 0
	for _, b := range s.quota {
		if b > bmax {
			bmax = b
		}
	}
	return bmax
}

// Validate checks the §2 model invariants: every list is a permutation
// of the node's neighborhood and 0 ≤ bi ≤ |Li| (bi = 0 only where
// |Li| = 0). Build establishes these; Validate re-checks them, which
// tests and fuzzing use as the single source of truth.
func (s *System) Validate() error {
	return s.validate(1)
}

// validate checks the invariants with per-node work fanned out across
// `workers` goroutines; the reported error is the lowest-node one so
// output does not depend on scheduling.
func (s *System) validate(workers int) error {
	n := s.g.NumNodes()
	if len(s.lists) != n || len(s.quota) != n {
		return fmt.Errorf("pref: per-node slices sized %d/%d for %d nodes",
			len(s.lists), len(s.quota), n)
	}
	if len(s.rank) != 2*s.g.NumEdges() {
		return fmt.Errorf("pref: rank table sized %d for %d edges", len(s.rank), s.g.NumEdges())
	}
	errs := make([]error, n)
	// Each worker reuses one NodeID-indexed scratch slice for duplicate
	// detection, stamped per node (seen[j] == i+1 means node i already
	// ranked j), instead of allocating a map per node.
	par.ForEachChunk(n, workers, func(lo, hi int) {
		seen := make([]int32, n)
		for i := lo; i < hi; i++ {
			errs[i] = s.validateNode(i, seen)
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *System) validateNode(i int, seen []int32) error {
	neigh := s.g.Neighbors(i)
	if len(s.lists[i]) != len(neigh) {
		return fmt.Errorf("pref: node %d list length %d != degree %d", i, len(s.lists[i]), len(neigh))
	}
	stamp := int32(i) + 1
	for r, j := range s.lists[i] {
		if !s.g.HasEdge(i, j) {
			return fmt.Errorf("pref: node %d ranks non-neighbor %d", i, j)
		}
		if seen[j] == stamp {
			return fmt.Errorf("pref: node %d ranks %d twice", i, j)
		}
		seen[j] = stamp
		if got := s.Rank(i, j); got != r {
			return fmt.Errorf("pref: node %d rank table says R(%d)=%d, list says %d", i, j, got, r)
		}
	}
	if s.quota[i] < 0 || s.quota[i] > len(s.lists[i]) {
		return fmt.Errorf("pref: node %d quota %d outside [0,%d]", i, s.quota[i], len(s.lists[i]))
	}
	if s.quota[i] == 0 && len(s.lists[i]) > 0 {
		return fmt.Errorf("pref: node %d has neighbors but zero quota", i)
	}
	return nil
}

// FromRanks builds a System from explicit preference lists (most
// desirable first) and quotas. Quotas larger than the list length are
// clamped, mirroring the paper's "we can easily take bi = |Li|". It
// validates the model invariants.
func FromRanks(g *graph.Graph, lists [][]graph.NodeID, quotas []int) (*System, error) {
	n := g.NumNodes()
	if len(lists) != n || len(quotas) != n {
		return nil, fmt.Errorf("pref: need %d lists and quotas, got %d and %d", n, len(lists), len(quotas))
	}
	owned := make([][]graph.NodeID, n)
	for i := range lists {
		owned[i] = append([]graph.NodeID(nil), lists[i]...)
	}
	return fromOwnedLists(g, owned, append([]int(nil), quotas...), 1)
}

// Induced restricts the system to the nodes keep accepts: the induced
// subgraph with the kept nodes relabelled 0..k−1 in ascending order,
// every list filtered to its kept neighbours in preference order, and
// each kept node's quota (clamped to its shorter list as FromRanks
// clamps). back maps each new ID to its original ID.
func (s *System) Induced(keep func(i graph.NodeID) bool) (sub *System, back []graph.NodeID, err error) {
	fwd := make([]int, s.g.NumNodes())
	var ids []graph.NodeID
	for i := range fwd {
		fwd[i] = -1
		if keep(i) {
			fwd[i] = len(ids)
			ids = append(ids, i)
		}
	}
	g, back, err := s.g.Subgraph(ids)
	if err != nil {
		return nil, nil, err
	}
	lists := make([][]graph.NodeID, len(back))
	quotas := make([]int, len(back))
	for newID, oldID := range back {
		for _, j := range s.lists[oldID] {
			if fwd[j] >= 0 {
				lists[newID] = append(lists[newID], fwd[j])
			}
		}
		quotas[newID] = s.quota[oldID]
	}
	sub, err = fromOwnedLists(g, lists, quotas, 1)
	if err != nil {
		return nil, nil, err
	}
	return sub, back, nil
}

// fromOwnedLists finalizes a System from lists the caller hands over
// (no copies). Rank-map construction and quota clamping are fanned out
// per node across `workers` goroutines; the result is identical for
// any worker count. Validation runs afterwards as the single source of
// truth for the §2 invariants.
func fromOwnedLists(g *graph.Graph, lists [][]graph.NodeID, quotas []int, workers int) (*System, error) {
	n := g.NumNodes()
	s := &System{
		g:     g,
		lists: lists,
		rank:  make([]int32, 2*g.NumEdges()),
		quota: quotas,
	}
	buildNode := func(i int) {
		off := g.IncidenceOffset(i)
		for r, j := range lists[i] {
			// Entries that are not neighbors (or repeat one) cannot be
			// placed in the CSR-aligned table; validate rejects the list
			// afterwards, so skipping here loses nothing.
			if k, ok := g.NeighborIndex(i, j); ok {
				s.rank[off+int32(k)] = int32(r)
			}
		}
		b := quotas[i]
		if b > len(lists[i]) {
			b = len(lists[i])
		}
		if b < 1 && len(lists[i]) > 0 {
			b = 1 // the model assumes every non-isolated node wants at least one connection
		}
		if len(lists[i]) == 0 {
			b = 0
		}
		s.quota[i] = b
	}
	par.ForEachIndex(n, workers, buildNode)
	if err := s.validate(workers); err != nil {
		return nil, err
	}
	return s, nil
}

// Build constructs a System by scoring every neighbor of every node
// with the given metric and sorting each neighborhood by descending
// score. Ties are broken by ascending node ID so the list is always a
// strict total order, as §2 requires. quota is evaluated per node and
// clamped to [1, |Li|] (0 for isolated nodes).
//
// Build is BuildParallel on one worker, which runs on the calling
// goroutine, so any metric may be used, the memoizing RandomMetric
// included.
func Build(g *graph.Graph, metric Metric, quota func(i graph.NodeID) int) (*System, error) {
	return BuildParallel(g, metric, quota, 1)
}

// UniformQuota returns a quota function assigning b to every node.
func UniformQuota(b int) func(graph.NodeID) int {
	return func(graph.NodeID) int { return b }
}

// DegreeFractionQuota returns a quota function assigning
// max(1, round(frac*deg(i))) to every node of graph g.
func DegreeFractionQuota(g *graph.Graph, frac float64) func(graph.NodeID) int {
	return func(i graph.NodeID) int {
		b := int(frac*float64(g.Degree(i)) + 0.5)
		if b < 1 {
			b = 1
		}
		return b
	}
}
