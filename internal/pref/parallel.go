package pref

import (
	"slices"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/par"
)

// BuildParallel is Build with the per-node scoring and sorting fanned
// out over `workers` goroutines (0 = GOMAXPROCS). The result is
// bit-identical to Build for the same inputs.
//
// The metric MUST be safe for concurrent use: pure functions and the
// value metrics (DistanceMetric, InterestMetric, ResourceMetric,
// TransactionMetric, compositions of these) qualify; the memoizing
// RandomMetric and SymmetricRandomMetric do NOT — use Build for those,
// or pre-materialize their scores into a TransactionMetric.
//
// Building preferences is the one super-linear step of overlay setup
// (Σ deg·log deg scoring and sorting); at 10⁵+ peers it dominates, and
// it is embarrassingly parallel per node.
func BuildParallel(g *graph.Graph, metric Metric, quota func(i graph.NodeID) int, workers int) (*System, error) {
	workers = par.Workers(workers)
	n := g.NumNodes()
	lists := make([][]graph.NodeID, n)
	quotas := make([]int, n)

	par.ForEachIndex(n, workers, func(i int) {
		lists[i] = rankedNeighbors(g, metric, i)
		quotas[i] = quota(i)
	})
	return fromOwnedLists(g, lists, quotas, workers)
}

// rankedNeighbors scores and sorts one neighborhood; shared by Build
// and BuildParallel so the orders cannot diverge. Scores are sorted as
// (score, id) pairs in a flat slice — map lookups inside the sort
// comparator were the profiled hot spot of overlay setup.
func rankedNeighbors(g *graph.Graph, metric Metric, i graph.NodeID) []graph.NodeID {
	neigh := g.Neighbors(i)
	type scored struct {
		id    graph.NodeID
		score float64
	}
	pairs := make([]scored, len(neigh))
	for k, j := range neigh {
		pairs[k] = scored{id: j, score: metric.Score(i, j)}
	}
	slices.SortFunc(pairs, func(a, b scored) int {
		switch {
		case a.score > b.score:
			return -1
		case a.score < b.score:
			return 1
		case a.id < b.id:
			return -1
		case a.id > b.id:
			return 1
		}
		return 0
	})
	list := make([]graph.NodeID, len(pairs))
	for k, p := range pairs {
		list[k] = p.id
	}
	return list
}
