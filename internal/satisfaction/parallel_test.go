package satisfaction

import (
	"sync"
	"testing"

	"overlaymatch/internal/graph"
)

// workerGrid is the worker-count sweep every parallel-equivalence test
// runs: 1 is the legacy serial path, 2/3 exercise uneven shard splits,
// 8 oversubscribes any test machine.
var workerGrid = []int{1, 2, 3, 8}

// TestNewTableParallelBitIdentical verifies the whole deterministic-
// parallelism contract of the table layer at once: for every worker
// count, the packed order keys and every node's lazily-built weight
// list, incident-edge list, and inverse position lookup must be
// identical to the serial build.
func TestNewTableParallelBitIdentical(t *testing.T) {
	s := randomSystem(t, 404, 800, 0.02, 3)
	g := s.Graph()
	ref := NewTable(s)
	for _, w := range workerGrid {
		tbl := NewTableParallel(s, w)
		for id := 0; id < g.NumEdges(); id++ {
			if tbl.OrderKeys()[id] != ref.OrderKeys()[id] {
				t.Fatalf("workers=%d: order key of edge %d diverged", w, id)
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			gotN, wantN := tbl.SortedNeighbors(s, v), ref.SortedNeighbors(s, v)
			gotI, wantI := tbl.SortedIncident(s, v), ref.SortedIncident(s, v)
			for k := range wantN {
				if gotN[k] != wantN[k] || gotI[k] != wantI[k] {
					t.Fatalf("workers=%d: node %d weight list diverged at slot %d", w, v, k)
				}
			}
			if !samePositions(g, v, tbl.WeightList(s, v), ref.WeightList(s, v)) {
				t.Fatalf("workers=%d: node %d position lookup diverged", w, v)
			}
		}
	}
}

// TestBuildSortedOnceRace hammers the sync.Once guarding the lazy
// weight-list build from many goroutines mixing all three accessor
// entry points, on a table whose internal build itself fans out — the
// race detector (make race-core) must stay silent and every caller
// must observe the same fully-built arrays.
func TestBuildSortedOnceRace(t *testing.T) {
	s := randomSystem(t, 405, 300, 0.05, 3)
	g := s.Graph()
	ref := NewTable(s) // built serially up front as the comparison oracle
	for v := 0; v < g.NumNodes(); v++ {
		ref.SortedNeighbors(s, v)
	}
	tbl := NewTableParallel(s, 4) // buildSorted will fan out inside the Once
	const goroutines = 24
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := w % g.NumNodes(); v < g.NumNodes(); v += 3 {
				switch w % 3 {
				case 0:
					got := tbl.SortedNeighbors(s, v)
					want := ref.SortedNeighbors(s, v)
					for k := range want {
						if got[k] != want[k] {
							errs <- "SortedNeighbors diverged"
							return
						}
					}
				case 1:
					got := tbl.SortedIncident(s, v)
					want := ref.SortedIncident(s, v)
					for k := range want {
						if got[k] != want[k] {
							errs <- "SortedIncident diverged"
							return
						}
					}
				default:
					if !samePositions(g, v, tbl.WeightList(s, v), ref.WeightList(s, v)) {
						errs <- "WeightList positions diverged"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// samePositions reports whether two weight-list views of node v place
// every neighbor at the same position.
func samePositions(g *graph.Graph, v graph.NodeID, a, b WeightList) bool {
	for _, u := range g.Neighbors(v) {
		pa, oka := a.Pos(u)
		pb, okb := b.Pos(u)
		if pa != pb || oka != okb {
			return false
		}
	}
	return true
}

// TestValueAllocBudget pins the hot-path fix: Value must not allocate
// per call (the duplicate check borrows pooled epoch-stamped scratch
// instead of building a map).
func TestValueAllocBudget(t *testing.T) {
	s := randomSystem(t, 406, 120, 0.2, 4)
	g := s.Graph()
	var node graph.NodeID = -1
	for v := 0; v < g.NumNodes(); v++ {
		if g.Degree(v) >= 4 {
			node = v
			break
		}
	}
	if node < 0 {
		t.Fatal("no node with degree >= 4 in the test system")
	}
	conns := append([]graph.NodeID(nil), g.Neighbors(node)[:4]...)
	if avg := testing.AllocsPerRun(200, func() {
		_ = Value(s, node, conns)
	}); avg > 0 {
		t.Fatalf("Value allocates %v per call, want 0", avg)
	}
}

// TestValueScratchReuse drives the pooled scratch through growth and
// many stamps: repeated calls across nodes of different degrees keep
// detecting duplicates correctly.
func TestValueScratchReuse(t *testing.T) {
	s := randomSystem(t, 407, 80, 0.3, 3)
	g := s.Graph()
	for round := 0; round < 5; round++ {
		for v := 0; v < g.NumNodes(); v++ {
			if g.Degree(v) == 0 {
				continue
			}
			k := min(s.Quota(v), g.Degree(v))
			conns := append([]graph.NodeID(nil), g.Neighbors(v)[:k]...)
			if got := Value(s, v, conns); got <= 0 || got > 1+eps {
				t.Fatalf("round %d node %d: Value = %v out of range", round, v, got)
			}
		}
	}
	// Duplicates must still panic after all that reuse.
	var v graph.NodeID = -1
	for u := 0; u < g.NumNodes(); u++ {
		if g.Degree(u) >= 1 && s.Quota(u) >= 2 {
			v = u
			break
		}
	}
	if v < 0 {
		t.Fatal("no suitable node")
	}
	j := g.Neighbors(v)[0]
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate connection did not panic")
		}
	}()
	Value(s, v, []graph.NodeID{j, j})
}
