package dynamic

import (
	"testing"
	"testing/quick"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
)

func randomSystem(tb testing.TB, seed uint64, n int, p float64, b int) *pref.System {
	tb.Helper()
	src := rng.New(seed)
	g := gen.GNP(src, n, p)
	s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(b))
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// stepChurn steps the spec's membership feed through e one epoch per
// event, calling after (when non-nil) with each epoch's record.
func stepChurn(tb testing.TB, e *Engine, spec ChurnSpec, seed uint64, after func(EpochRecord)) {
	tb.Helper()
	evs, err := spec.Schedule(e.o.s.Graph().NumNodes(), seed)
	if err != nil {
		tb.Fatal(err)
	}
	for _, ev := range evs {
		rec, err := e.Step(ev)
		if err != nil {
			tb.Fatal(err)
		}
		if after != nil {
			after(rec)
		}
	}
}

// freeEdge returns an unmatched live edge with free quota at both ends,
// if there is one: the live matching is maximal exactly when there is
// none.
func freeEdge(o *Overlay) (graph.Edge, bool) {
	for _, e := range o.s.Graph().Edges() {
		if !o.alive[e.U] || !o.alive[e.V] || o.m.Has(e.U, e.V) {
			continue
		}
		if o.m.DegreeOf(e.U) < o.s.Quota(e.U) && o.m.DegreeOf(e.V) < o.s.Quota(e.V) {
			return e, true
		}
	}
	return graph.Edge{}, false
}

func TestLeaveDropsConnections(t *testing.T) {
	e := mustEngine(t, 2, 15, 0.5, 2, EngineOptions{CompleteOnly: true})
	o := e.Overlay()
	// Pick a matched node.
	var x graph.NodeID = -1
	for i := 0; i < 15; i++ {
		if o.Matching().DegreeOf(i) > 0 {
			x = i
			break
		}
	}
	if x < 0 {
		t.Skip("no matched node")
	}
	degree := o.Matching().DegreeOf(x)
	rec, err := e.Step(TimedEvent{Kind: UpdateLeave, Node: x})
	if err != nil {
		t.Fatal(err)
	}
	// Completion repair never preempts, so the leave's own
	// connections are the only ones dropped.
	if rec.Stats.Removed != degree {
		t.Fatalf("leave removed %d connections, want the node's %d", rec.Stats.Removed, degree)
	}
	if o.Alive(x) || o.Matching().DegreeOf(x) != 0 {
		t.Fatal("dead node still alive or matched")
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRepairMaximality: after every epoch of any churn sequence, the
// live matching is maximal — no unmatched live edge has free quota at
// both ends — under both policies.
func TestRepairMaximality(t *testing.T) {
	check := func(seed uint64, nRaw uint8, completeOnly bool) bool {
		e := mustEngine(t, seed, int(nRaw)%15+5, 0.4, 2, EngineOptions{CompleteOnly: completeOnly})
		ok := true
		spec := ChurnSpec{Events: 20, LeaveProb: 0.5, MinAlive: 2, Rate: 1}
		stepChurn(t, e, spec, seed^0xaa, func(EpochRecord) {
			_, free := freeEdge(e.Overlay())
			ok = ok && !free && e.Overlay().Validate() == nil
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPreemptiveLocalStability: after every preemptive epoch no
// unmatched live edge is heavier than the lightest connection at both
// of its (full) endpoints — the local-stability property fresh LIC
// would give.
func TestPreemptiveLocalStability(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		e := mustEngine(t, seed, 16, 0.4, 2, EngineOptions{})
		o := e.Overlay()
		spec := ChurnSpec{Events: 30, LeaveProb: 0.5, MinAlive: 2, Rate: 1}
		stepChurn(t, e, spec, seed, func(rec EpochRecord) {
			s, m := o.System(), o.Matching()
			for _, eg := range s.Graph().Edges() {
				if !o.Alive(eg.U) || !o.Alive(eg.V) || m.Has(eg.U, eg.V) {
					continue
				}
				k := satisfaction.KeyFor(s, eg)
				blocked := false
				for _, x := range []graph.NodeID{eg.U, eg.V} {
					if m.DegreeOf(x) < s.Quota(x) {
						continue
					}
					if satisfaction.KeyFor(s, s.Graph().EdgeByID(o.lightestEdge(x))).Heavier(k) {
						blocked = true
					}
				}
				if !blocked {
					t.Fatalf("seed %d epoch %d: edge %v would preempt but was not applied", seed, rec.Epoch, eg)
				}
			}
		})
	}
}

// qualityPerEvent steps the spec's feed through e and returns the
// quality ratio after every event.
func qualityPerEvent(tb testing.TB, e *Engine, spec ChurnSpec, seed uint64) []float64 {
	tb.Helper()
	var qs []float64
	stepChurn(tb, e, spec, seed, func(EpochRecord) {
		q, err := e.Overlay().QualityRatio()
		if err != nil {
			tb.Fatal(err)
		}
		qs = append(qs, q)
	})
	return qs
}

// TestPreemptiveQualityBeatsCompletion: averaged over many churn runs,
// preemptive repair must track fresh LIC at least as well as
// completion-only repair.
func TestPreemptiveQualityBeatsCompletion(t *testing.T) {
	var qComplete, qPreempt float64
	const runs = 10
	spec := ChurnSpec{Events: 25, LeaveProb: 0.5, MinAlive: 2, Rate: 1}
	for seed := uint64(0); seed < runs; seed++ {
		s := randomSystem(t, seed, 18, 0.4, 2)
		for _, completeOnly := range []bool{true, false} {
			e, err := NewEngine(s, EngineOptions{CompleteOnly: completeOnly})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range qualityPerEvent(t, e, spec, seed) {
				if completeOnly {
					qComplete += q
				} else {
					qPreempt += q
				}
			}
		}
	}
	if qPreempt < qComplete-1e-9 {
		t.Fatalf("preemptive quality %v < completion quality %v", qPreempt, qComplete)
	}
}

// TestQualityRatioBounded: repair never leaves more than 2x weight on
// the table relative to fresh LIC (both are maximal matchings with the
// greedy ½-approx structure), and preemptive repair stays close to 1.
func TestQualityRatioBounded(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		e := mustEngine(t, seed, 15, 0.5, 2, EngineOptions{})
		spec := ChurnSpec{Events: 20, LeaveProb: 0.5, MinAlive: 2, Rate: 1}
		for i, q := range qualityPerEvent(t, e, spec, seed*7) {
			if q < 0.5-1e-9 {
				t.Fatalf("seed %d event %d: quality %v below greedy floor", seed, i, q)
			}
		}
	}
}

// rebuilt copies s's lists and quotas, lets edit change them, and
// builds the edited system over the same graph.
func rebuilt(tb testing.TB, s *pref.System, edit func(lists [][]graph.NodeID, quotas []int)) *pref.System {
	tb.Helper()
	g := s.Graph()
	lists := make([][]graph.NodeID, g.NumNodes())
	quotas := make([]int, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		lists[i] = append([]graph.NodeID(nil), s.List(i)...)
		quotas[i] = s.Quota(i)
	}
	edit(lists, quotas)
	s2, err := pref.FromRanks(g, lists, quotas)
	if err != nil {
		tb.Fatal(err)
	}
	return s2
}

// partialRerank rebuilds s with a sparse subset of nodes changed: every
// seventh node's quota is cut to 1 and a disjoint eleventh of the lists
// is reversed. It returns the new system and the nodes it changed.
func partialRerank(tb testing.TB, s *pref.System) (*pref.System, []graph.NodeID) {
	tb.Helper()
	var dirty []graph.NodeID
	cut := rebuilt(tb, s, func(lists [][]graph.NodeID, quotas []int) {
		for x := range lists {
			switch {
			case x%7 == 0:
				quotas[x] = 1
			case x%11 == 3:
				l := lists[x]
				for a, b := 0, len(l)-1; a < b; a, b = a+1, b-1 {
					l[a], l[b] = l[b], l[a]
				}
			default:
				continue
			}
			dirty = append(dirty, x)
		}
	})
	return cut, dirty
}

// rerank submits a rerank at the engine's clock and drains it,
// returning the epoch's record.
func rerank(tb testing.TB, e *Engine, s2 *pref.System, dirty []graph.NodeID) EpochRecord {
	tb.Helper()
	if err := e.SubmitRerank(e.Now(), s2, dirty); err != nil {
		tb.Fatal(err)
	}
	e.Drain()
	return e.Records()[len(e.Records())-1]
}

func TestSetSystemQuotaReduction(t *testing.T) {
	e := mustEngine(t, 9, 12, 0.7, 3, EngineOptions{})
	o := e.Overlay()
	// Reduce node 0's quota to 1 via a rebuilt system.
	s2 := rebuilt(t, o.System(), func(_ [][]graph.NodeID, quotas []int) { quotas[0] = 1 })
	before := o.Matching().DegreeOf(0)
	rec := rerank(t, e, s2, []graph.NodeID{0})
	if o.Matching().DegreeOf(0) > 1 {
		t.Fatalf("node 0 still has %d connections after quota cut", o.Matching().DegreeOf(0))
	}
	if before > 1 && rec.Stats.Removed == 0 {
		t.Fatal("quota cut removed nothing")
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSetSystemPreferenceFlip(t *testing.T) {
	// Flipping a node's preference list upside down must keep the
	// overlay valid and locally stable after repair.
	e := mustEngine(t, 11, 12, 0.6, 2, EngineOptions{})
	s2 := rebuilt(t, e.Overlay().System(), func(lists [][]graph.NodeID, _ []int) {
		l := lists[0]
		for a, b := 0, len(l)-1; a < b; a, b = a+1, b-1 {
			l[a], l[b] = l[b], l[a]
		}
	})
	rerank(t, e, s2, []graph.NodeID{0})
	if e.Overlay().System() != s2 {
		t.Fatal("system not swapped")
	}
	assertConverged(t, e)
}

// TestChurnRespectsMinAlive: ChurnSpec.Schedule rejects a floor the
// population can never satisfy and suppresses leaves at the MinAlive
// floor, so stepping its feed never drops the population below it, and
// a leave-heavy feed does reach it.
func TestChurnRespectsMinAlive(t *testing.T) {
	for _, floor := range []int{10, 13} {
		spec := ChurnSpec{Events: 10, LeaveProb: 0.5, MinAlive: floor, Rate: 1}
		if _, err := spec.Schedule(10, 2); err == nil {
			t.Fatalf("Schedule accepted minalive=%d on 10 nodes", floor)
		}
	}
	e := mustEngine(t, 31, 10, 0.5, 1, EngineOptions{CompleteOnly: true})
	lowest := e.Overlay().NumAlive()
	spec := ChurnSpec{Events: 100, LeaveProb: 0.99, MinAlive: 5, Rate: 1}
	stepChurn(t, e, spec, 2, func(rec EpochRecord) {
		alive := e.Overlay().NumAlive()
		if alive < spec.MinAlive {
			t.Fatalf("epoch %d dropped population to %d", rec.Epoch, alive)
		}
		lowest = min(lowest, alive)
	})
	if lowest != spec.MinAlive {
		t.Fatalf("population bottomed out at %d, want the floor %d", lowest, spec.MinAlive)
	}
}

// TestLiveLICAfterChurn: the quality yardstick itself must be correct —
// the live LIC matches no dead node and is a valid matching of the
// universe system.
func TestLiveLICAfterChurn(t *testing.T) {
	e := mustEngine(t, 41, 12, 0.5, 2, EngineOptions{})
	for _, x := range []graph.NodeID{3, 7} {
		if _, err := e.Step(TimedEvent{Kind: UpdateLeave, Node: x}); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := e.Overlay().LiveLIC()
	if err != nil {
		t.Fatal(err)
	}
	if fresh.DegreeOf(3) != 0 || fresh.DegreeOf(7) != 0 {
		t.Fatal("LiveLIC matched dead nodes")
	}
	if err := fresh.Validate(e.Overlay().System()); err != nil {
		t.Fatal(err)
	}
}
