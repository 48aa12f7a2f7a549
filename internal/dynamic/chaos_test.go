package dynamic

import (
	"fmt"
	"testing"

	"overlaymatch/internal/faults"
	"overlaymatch/internal/graph"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/workload"
)

// TestChaosGateEngine is the PR's chaos gate: seed-swept churn over
// three workload families (drift included), each run under seeded
// faults crash windows — one healing, one permanent — merged into the
// membership feed, at three preemptive repair budgets and under
// completion-only repair. The gates:
//
//   - full budget: every epoch drains completely (no truncation, no
//     deferred backlog, zero blocking edges) and the final matching
//     equals the live-LIC fixed point;
//   - truncated (k = 1): every epoch's measured blocking-edge count
//     stays within the certified Deferred bound, validity always
//     holds, and healing epochs reconverge to live-LIC;
//   - shedding (depth 2 under a hot feed): sheds actually engage,
//     the bound still holds, validity always holds, and healing
//     reconverges;
//   - completion-only: no epoch removes a connection except through
//     a leave or a rerank quota cut, and the live matching is valid
//     and maximal after every epoch. Deferred bounds blocking edges
//     only under preemption, so that assertion skips this row.
//
// 36 seeds × 3 families = 108 instances ≥ the 100-seed floor.
func TestChaosGateEngine(t *testing.T) {
	families := []string{"swarm:n=64", "geo:n=64", "drift:n=64,epochs=4"}
	const seedsPerFamily = 36
	for fi, fam := range families {
		spec, err := workload.Parse(fam)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < seedsPerFamily; s++ {
			seed := uint64(fi*1000 + s + 1)
			inst, err := workload.Build(spec, seed, 1)
			if err != nil {
				t.Fatal(err)
			}
			base := inst.System
			if len(inst.Epochs) > 0 {
				base = inst.Epochs[0]
			}
			n := base.Graph().NumNodes()

			churn := ChurnSpec{Events: 30, LeaveProb: 0.55, MinAlive: 8, Rate: 4}
			sched, err := churn.Schedule(n, seed^0xc4a0)
			if err != nil {
				t.Fatal(err)
			}
			// Two seeded crash windows: one heals mid-run, one never
			// does. Stale overlaps with the churn feed are no-ops.
			fs := faults.Spec{Crashes: []faults.Crash{
				{Start: 1.5, End: 6.5, Node: int(seed % uint64(n))},
				{Start: 4.0, End: faults.NoHeal, Node: int((seed*7 + 13) % uint64(n))},
			}}
			if err := fs.Validate(); err != nil {
				t.Fatal(err)
			}
			sched = MergeSchedules(sched, CrashSchedule(fs, n))
			if len(inst.Epochs) > 1 {
				sched = MergeSchedules(sched, DriftSchedule(inst.Epochs, 2.0, 3.0))
			}

			for _, cfg := range []struct {
				name string
				opts EngineOptions
			}{
				{"full", EngineOptions{MeasureStability: true}},
				{"k1", EngineOptions{RepairRounds: 1, MeasureStability: true}},
				{"shed", EngineOptions{ShedDepth: 2, MeasureStability: true}},
				{"complete", EngineOptions{CompleteOnly: true}},
			} {
				e, err := NewEngine(base, cfg.opts)
				if err != nil {
					t.Fatal(err)
				}
				tag := fmt.Sprintf("%s seed %d %s", fam, seed, cfg.name)
				if cfg.opts.CompleteOnly {
					runEpochs(t, e, sched, func(before *matching.Matching, batch []TimedEvent) {
						checkCompletionEpoch(t, tag, e, before, batch)
					})
					continue
				}
				recs, err := RunSchedule(e, sched)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				for _, r := range recs {
					if r.Blocking > r.Deferred {
						t.Fatalf("%s epoch %d: blocking %d > certified bound %d",
							tag, r.Epoch, r.Blocking, r.Deferred)
					}
					if cfg.name == "full" && (r.Truncated || r.Deferred != 0 || r.Blocking != 0) {
						t.Fatalf("%s epoch %d: full budget left work behind: %+v", tag, r.Epoch, r)
					}
				}
				if err := e.Overlay().Validate(); err != nil {
					t.Fatalf("%s: invalid overlay: %v", tag, err)
				}
				if cfg.name != "full" {
					e.Heal()
				}
				if err := e.Overlay().Validate(); err != nil {
					t.Fatalf("%s: invalid after heal: %v", tag, err)
				}
				if bl := e.Overlay().BlockingEdges(); bl != 0 {
					t.Fatalf("%s: %d blocking edges after heal", tag, bl)
				}
				if !e.Overlay().Matching().Equal(e.Overlay().LiveLICInherited()) {
					t.Fatalf("%s: healed matching != live-LIC fixed point", tag)
				}
			}
		}
	}
}

// TestEnginePartialRerankBound gates the certified bound on partial
// reranks. A rerank re-weights every connection of a dirty node, so a
// partner the node keeps may end up holding a lighter connection, and
// an unmatched edge at that partner may turn blocking. Each feed merges
// a partial rerank (partialRerank: some quotas cut to 1, some lists
// reversed), the rerank restoring the base system and the partial
// rerank again into a churn feed. Every epoch must keep
// Blocking <= Deferred, and at full budget every epoch must end with
// zero blocking edges.
func TestEnginePartialRerankBound(t *testing.T) {
	sizes := []struct {
		n int
		p float64
		b int
	}{{90, 0.08, 2}, {120, 0.06, 3}}
	const seeds = 40
	for _, size := range sizes {
		for seed := uint64(1); seed <= seeds; seed++ {
			base := randomSystem(t, seed, size.n, size.p, size.b)
			cut, dirty := partialRerank(t, base)
			feed, err := ChurnSpec{Events: 80, LeaveProb: 0.55, MinAlive: size.n / 4, Rate: 0.6}.Schedule(size.n, seed)
			if err != nil {
				t.Fatal(err)
			}
			feed = MergeSchedules(feed, []TimedEvent{
				{At: 8, Kind: UpdateRerank, System: cut, Dirty: dirty},
				{At: 20, Kind: UpdateRerank, System: base, Dirty: dirty},
				{At: 40, Kind: UpdateRerank, System: cut, Dirty: dirty},
			})
			for _, cfg := range []struct {
				name string
				opts EngineOptions
			}{
				{"full", EngineOptions{MeasureStability: true}},
				{"k1", EngineOptions{RepairRounds: 1, MeasureStability: true}},
			} {
				e, err := NewEngine(base, cfg.opts)
				if err != nil {
					t.Fatal(err)
				}
				recs, err := RunSchedule(e, feed)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range recs {
					if r.Blocking > r.Deferred {
						t.Fatalf("n=%d seed %d %s epoch %d: blocking %d > certified bound %d",
							size.n, seed, cfg.name, r.Epoch, r.Blocking, r.Deferred)
					}
					if cfg.name == "full" && r.Blocking != 0 {
						t.Fatalf("n=%d seed %d full epoch %d: %d blocking edges after a full-budget epoch",
							size.n, seed, r.Epoch, r.Blocking)
					}
				}
			}
		}
	}
}

// runEpochs is RunSchedule with a hook: check runs after every epoch
// with the matching the epoch started from and the batch it applied.
func runEpochs(tb testing.TB, e *Engine, evs []TimedEvent, check func(before *matching.Matching, batch []TimedEvent)) {
	tb.Helper()
	watch := func(batch []TimedEvent, apply func()) {
		before, epochs := e.o.m.Clone(), len(e.records)
		apply()
		if len(e.records) > epochs {
			check(before, batch)
		}
	}
	for i, ev := range evs {
		var err error
		watch(append(append([]TimedEvent(nil), e.pending...), ev), func() { err = e.submit(ev) })
		if err != nil {
			tb.Fatalf("schedule event %d: %v", i, err)
		}
	}
	// A copy: the engine reuses the queue's storage once it flushes.
	watch(append([]TimedEvent(nil), e.pending...), e.Drain)
}

// checkCompletionEpoch asserts what completion-only repair promises
// after one epoch: every connection it dropped touched a node that left
// in the batch or a rerank-dirty node whose degree exceeded its new
// quota, and the live matching is valid and maximal.
func checkCompletionEpoch(tb testing.TB, tag string, e *Engine, before *matching.Matching, batch []TimedEvent) {
	tb.Helper()
	mayDrop := make(map[graph.NodeID]bool)
	for _, u := range batch {
		switch u.Kind {
		case UpdateLeave:
			mayDrop[u.Node] = true
		case UpdateRerank:
			for _, x := range u.Dirty {
				if before.DegreeOf(x) > u.System.Quota(x) {
					mayDrop[x] = true
				}
			}
		}
	}
	o := e.Overlay()
	for _, eg := range before.Edges() {
		if !o.Matching().Has(eg.U, eg.V) && !mayDrop[eg.U] && !mayDrop[eg.V] {
			tb.Fatalf("%s epoch %d: dropped %v without a leave or a quota cut", tag, e.epoch, eg)
		}
	}
	if err := o.Validate(); err != nil {
		tb.Fatalf("%s epoch %d: invalid overlay: %v", tag, e.epoch, err)
	}
	if eg, free := freeEdge(o); free {
		tb.Fatalf("%s epoch %d: live edge %v has free quota at both ends", tag, e.epoch, eg)
	}
}

// TestChaosShedEngagement pins down that the shedding third of the
// chaos gate actually exercises the shed path for a healthy share of
// instances (the gate would be vacuous if batches never exceeded the
// threshold).
func TestChaosShedEngagement(t *testing.T) {
	shedRuns := 0
	const runs = 20
	for s := 0; s < runs; s++ {
		e := mustEngine(t, uint64(s+900), 64, 0.15, 2, EngineOptions{ShedDepth: 2})
		spec := ChurnSpec{Events: 60, LeaveProb: 0.5, MinAlive: 8, Rate: 24}
		if _, err := RunEngineChurn(e, spec, uint64(s)); err != nil {
			t.Fatal(err)
		}
		if e.TotalSheds() > 0 {
			shedRuns++
		}
	}
	if shedRuns < runs/2 {
		t.Fatalf("shedding engaged in only %d/%d hot runs", shedRuns, runs)
	}
}

// TestDriftScheduleDirtySets sanity-checks the rerank plumbing: drift
// epochs share one contact graph, DirtyNodes finds a nonempty diff,
// and a pure rerank feed (no membership churn) still converges to the
// new system's LIC.
func TestDriftScheduleDirtySets(t *testing.T) {
	spec, err := workload.Parse("drift:n=48,epochs=3")
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workload.Build(spec, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(inst.Epochs) != 3 {
		t.Fatalf("expected 3 epochs, got %d", len(inst.Epochs))
	}
	for i := 1; i < len(inst.Epochs); i++ {
		if inst.Epochs[i].Graph() != inst.Epochs[0].Graph() {
			t.Fatal("drift epochs do not share a contact graph")
		}
	}
	evs := DriftSchedule(inst.Epochs, 1.0, 2.0)
	if len(evs) != 2 {
		t.Fatalf("expected 2 rerank events, got %d", len(evs))
	}
	sawDirty := false
	for _, ev := range evs {
		if len(ev.Dirty) > 0 {
			sawDirty = true
		}
	}
	if !sawDirty {
		t.Fatal("drift produced no dirty nodes at all")
	}
	e, err := NewEngine(inst.Epochs[0], EngineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSchedule(e, evs); err != nil {
		t.Fatal(err)
	}
	if e.Overlay().System() != inst.Epochs[2] {
		t.Fatal("engine did not land on the final drift epoch")
	}
	assertConverged(t, e)
}

// TestDirtyNodesDiff checks the diff helper on a hand-built case.
func TestDirtyNodesDiff(t *testing.T) {
	s := randomSystem(t, 77, 12, 0.6, 2)
	same := DirtyNodes(s, s)
	if len(same) != 0 {
		t.Fatalf("self-diff reported %d dirty nodes", len(same))
	}
	// Rebuild with a different metric: some node must differ.
	s2 := randomSystem(t, 78, 12, 0.6, 2)
	if s2.Graph() == s.Graph() {
		t.Skip("independent builds shared a graph?")
	}
	// DirtyNodes is defined over the same graph; emulate by comparing a
	// system against a quota-perturbed clone via pref.FromRanks.
	g := s.Graph()
	lists := make([][]int, g.NumNodes())
	quotas := make([]int, g.NumNodes())
	for x := 0; x < g.NumNodes(); x++ {
		lists[x] = append([]int(nil), s.List(x)...)
		quotas[x] = s.Quota(x)
	}
	quotas[3]++
	pert, err := pref.FromRanks(g, lists, quotas)
	if err != nil {
		t.Fatal(err)
	}
	dirty := DirtyNodes(s, pert)
	if len(dirty) != 1 || dirty[0] != 3 {
		t.Fatalf("quota perturbation of node 3 diffed as %v", dirty)
	}
}
