package matching

import (
	"fmt"
	"slices"
	"testing"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
)

// This file is the equivalence guard for the deterministic parallel
// layer, mirroring denseequiv_test.go's role for the dense refactor:
// every parallel entry point is swept against workers=1 (the exact
// legacy code path) over the same seeded corpus — gnp, geometric and
// ba topologies, quotas 1..4 — and over worker counts that exercise
// uneven shard splits and oversubscription. "Equivalent" here means
// bit-identical: same edges, same weights.

// parallelWorkerGrid deliberately includes prime and oversubscribed
// counts; 1 is covered implicitly as the serial reference.
var parallelWorkerGrid = []int{2, 3, 8}

func TestParallelEquivalenceSweep(t *testing.T) {
	systems := equivSystems(t)
	if len(systems) < 200 {
		t.Fatalf("guard corpus too small: %d systems", len(systems))
	}
	for si, s := range systems {
		si, s := si, s
		t.Run(fmt.Sprintf("sys%03d", si), func(t *testing.T) {
			g := s.Graph()
			ref := satisfaction.NewTable(s)
			refLICm := LIC(s, ref)
			for _, w := range parallelWorkerGrid {
				tbl := satisfaction.NewTableParallel(s, w)
				for id := 0; id < g.NumEdges(); id++ {
					if tbl.OrderKeys()[id] != ref.OrderKeys()[id] {
						t.Fatalf("workers=%d: order key %d diverged", w, id)
					}
				}
				for v := 0; v < g.NumNodes(); v++ {
					if !slices.Equal(tbl.SortedNeighbors(s, v), ref.SortedNeighbors(s, v)) {
						t.Fatalf("workers=%d: node %d weight list diverged", w, v)
					}
				}
				got := LICParallel(s, tbl, w)
				if !got.Equal(refLICm) {
					t.Fatalf("workers=%d: LICParallel diverged: %v vs %v", w, got.Edges(), refLICm.Edges())
				}
			}
		})
	}
}

// TestSortEdgeIDsParallelBig drives the sharded radix sort above its
// serial-fallback threshold with adversarial key distributions: heavy
// duplication (stability must hold — ties keep ascending EdgeID
// order), already-sorted, reverse-sorted, constant (every digit
// skipped), and uniform random. Output must equal the serial sort
// element for element.
func TestSortEdgeIDsParallelBig(t *testing.T) {
	if testing.Short() {
		t.Skip("large sort corpus")
	}
	n := parallelSortMin * 3
	shapes := []struct {
		name string
		gen  func(i int, src *rng.Source) uint64
	}{
		{"uniform", func(i int, src *rng.Source) uint64 { return src.Uint64() }},
		{"dup16", func(i int, src *rng.Source) uint64 { return src.Uint64n(16) }},
		{"ascending", func(i int, src *rng.Source) uint64 { return uint64(i) }},
		{"descending", func(i int, src *rng.Source) uint64 { return uint64(n - i) }},
		{"constant", func(i int, src *rng.Source) uint64 { return 0x1234_5678_9abc_def0 }},
		{"lowbyte", func(i int, src *rng.Source) uint64 { return src.Uint64n(256) }},
	}
	for _, shape := range shapes {
		shape := shape
		t.Run(shape.name, func(t *testing.T) {
			src := rng.New(uint64(len(shape.name)) * 7919)
			ord := make([]uint64, n)
			for i := range ord {
				ord[i] = shape.gen(i, src)
			}
			want := make([]graph.EdgeID, n)
			for i := range want {
				want[i] = graph.EdgeID(i)
			}
			SortEdgeIDs(want, ord, 1)
			for _, w := range parallelWorkerGrid {
				got := make([]graph.EdgeID, n)
				for i := range got {
					got[i] = graph.EdgeID(i)
				}
				sortByOrderKeyParallel(got, ord, w)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("workers=%d: position %d is edge %d, serial says %d", w, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestLICParallelLargeSystem runs one system big enough that the
// parallel radix path (not the small-slice serial fallback) actually
// executes inside LICParallel, and checks the matching is identical.
func TestLICParallelLargeSystem(t *testing.T) {
	if testing.Short() {
		t.Skip("large system")
	}
	s := randomSystem(t, 777, 20_000, 8.0/19_999, 3)
	if s.Graph().NumEdges() < parallelSortMin {
		t.Fatalf("test system too small to reach the parallel sort: m=%d", s.Graph().NumEdges())
	}
	tbl := satisfaction.NewTable(s)
	ref := LIC(s, tbl)
	for _, w := range parallelWorkerGrid {
		if got := LICParallel(s, satisfaction.NewTableParallel(s, w), w); !got.Equal(ref) {
			t.Fatalf("workers=%d: large-system LICParallel diverged", w)
		}
	}
}
