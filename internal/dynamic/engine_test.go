package dynamic

import (
	"math"
	"reflect"
	"testing"

	"overlaymatch/internal/graph"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/satisfaction"
)

// mustEngine builds an engine over a fresh random system.
func mustEngine(tb testing.TB, seed uint64, n int, p float64, b int, opts EngineOptions) *Engine {
	tb.Helper()
	e, err := NewEngine(randomSystem(tb, seed, n, p, b), opts)
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// assertConverged checks the full-heal postcondition: a valid matching
// with zero blocking edges that equals the fresh LIC of the live edge
// set under the inherited weight order — the unique stable matching
// repair can reach. (LiveLIC with re-ranked lists is a different,
// quality-only yardstick: restricting lists changes ranks and hence
// weights.)
func assertConverged(tb testing.TB, e *Engine) {
	tb.Helper()
	if err := e.Overlay().Validate(); err != nil {
		tb.Fatalf("overlay invalid: %v", err)
	}
	if bl := e.Overlay().BlockingEdges(); bl != 0 {
		tb.Fatalf("converged state has %d blocking edges", bl)
	}
	if !e.Overlay().Matching().Equal(e.Overlay().LiveLICInherited()) {
		tb.Fatal("converged matching != live-LIC (inherited order)")
	}
}

func TestEngineOptionsValidate(t *testing.T) {
	s := randomSystem(t, 3, 10, 0.4, 2)
	if _, err := NewEngine(s, EngineOptions{RepairRounds: -1}); err == nil {
		t.Fatal("negative RepairRounds accepted")
	}
	if _, err := NewEngine(s, EngineOptions{ShedDepth: -2}); err == nil {
		t.Fatal("negative ShedDepth accepted")
	}
}

func TestEngineStartsAtLIC(t *testing.T) {
	e := mustEngine(t, 4, 30, 0.3, 2, EngineOptions{})
	assertConverged(t, e)
	if e.DeferredBound() != 0 || e.PendingDepth() != 0 {
		t.Fatal("fresh engine has backlog")
	}
}

func TestEngineFullBudgetEqualsLiveLIC(t *testing.T) {
	for seed := uint64(0); seed < 20; seed++ {
		e := mustEngine(t, seed, 40, 0.2, 2, EngineOptions{MeasureStability: true})
		spec := ChurnSpec{Events: 40, LeaveProb: 0.6, MinAlive: 5, Rate: 2}
		recs, err := RunEngineChurn(e, spec, seed^0x5eed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Truncated || r.Shed {
				t.Fatalf("seed %d: full-budget epoch truncated/shed: %+v", seed, r)
			}
			if r.Deferred != 0 {
				t.Fatalf("seed %d: full-budget epoch left deferred=%d", seed, r.Deferred)
			}
			if r.Blocking != 0 {
				t.Fatalf("seed %d: full-budget epoch left blocking=%d", seed, r.Blocking)
			}
		}
		assertConverged(t, e)
	}
}

func TestEngineCoalescingAndBackoff(t *testing.T) {
	e := mustEngine(t, 7, 40, 0.25, 2, EngineOptions{})
	// First event at t=0 launches epoch 1 immediately (batch of 1).
	if err := e.SubmitLeave(0, 0); err != nil {
		t.Fatal(err)
	}
	if len(e.Records()) != 1 || e.Records()[0].Batch != 1 {
		t.Fatalf("expected immediate epoch of batch 1, got %+v", e.Records())
	}
	busy := e.Records()[0].End
	// A burst inside the busy window collides and queues.
	for i := 1; i <= 5; i++ {
		if err := e.SubmitLeave(busy/2, graph.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.Records()) != 1 {
		t.Fatal("epoch launched while another was in flight")
	}
	if e.PendingDepth() != 5 {
		t.Fatalf("queue depth %d, want 5", e.PendingDepth())
	}
	if e.TotalRetries() != 5 {
		t.Fatalf("retries %d, want 5", e.TotalRetries())
	}
	// Backoff pushed the launch past busyUntil: an arrival just after
	// the busy window still collides...
	if err := e.SubmitJoin(busy+0.01, 0); err != nil {
		t.Fatal(err)
	}
	if len(e.Records()) != 1 {
		t.Fatal("flush ignored the collision backoff")
	}
	// ...and the whole backlog coalesces once the backoff expires.
	e.Drain()
	if len(e.Records()) != 2 {
		t.Fatalf("drain ran %d epochs, want exactly 1 more", len(e.Records())-1)
	}
	if got := e.Records()[1].Batch; got != 6 {
		t.Fatalf("coalesced batch %d, want 6", got)
	}
	if e.Records()[1].Retries != 6 {
		t.Fatalf("epoch 2 absorbed %d retries, want 6", e.Records()[1].Retries)
	}
	assertConverged(t, e)
}

func TestEngineTruncationBoundAndHeal(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		e := mustEngine(t, seed+100, 50, 0.25, 2, EngineOptions{RepairRounds: 1, MeasureStability: true})
		spec := ChurnSpec{Events: 60, LeaveProb: 0.6, MinAlive: 6, Rate: 4}
		recs, err := RunEngineChurn(e, spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		truncated := 0
		for _, r := range recs {
			if r.Blocking < 0 {
				t.Fatal("MeasureStability did not populate Blocking")
			}
			if r.Blocking > r.Deferred {
				t.Fatalf("seed %d epoch %d: blocking %d exceeds certified bound %d",
					seed, r.Epoch, r.Blocking, r.Deferred)
			}
			if r.Truncated {
				truncated++
			}
		}
		if err := e.Overlay().Validate(); err != nil {
			t.Fatalf("seed %d: truncated overlay invalid: %v", seed, err)
		}
		// With load gone, healing epochs consume the backlog and land
		// on the stable matching.
		e.Heal()
		assertConverged(t, e)
	}
}

func TestEngineSheddingPreservesValidity(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		e := mustEngine(t, seed+200, 50, 0.25, 2, EngineOptions{ShedDepth: 2, MeasureStability: true})
		// High rate forces deep batches → shedding.
		spec := ChurnSpec{Events: 80, LeaveProb: 0.55, MinAlive: 6, Rate: 16}
		recs, err := RunEngineChurn(e, spec, seed)
		if err != nil {
			t.Fatal(err)
		}
		if e.TotalSheds() == 0 {
			t.Fatalf("seed %d: shedding never engaged (tune the spec)", seed)
		}
		for _, r := range recs {
			if r.Blocking > r.Deferred {
				t.Fatalf("seed %d epoch %d: blocking %d > bound %d under shedding",
					seed, r.Epoch, r.Blocking, r.Deferred)
			}
			if r.Shed && r.Rounds != 1 {
				t.Fatalf("shed epoch swept %d rounds, want 1", r.Rounds)
			}
		}
		if err := e.Overlay().Validate(); err != nil {
			t.Fatalf("seed %d: shed overlay invalid: %v", seed, err)
		}
		e.Heal()
		assertConverged(t, e)
	}
}

func TestEngineWorkerDeterminism(t *testing.T) {
	var base []EpochRecord
	var baseEdges []graph.Edge
	for _, workers := range []int{1, 2, 4} {
		e := mustEngine(t, 42, 60, 0.2, 3, EngineOptions{
			RepairRounds: 2, ShedDepth: 4, Workers: workers, MeasureStability: true,
		})
		spec := ChurnSpec{Events: 50, LeaveProb: 0.5, MinAlive: 8, Rate: 8}
		recs, err := RunEngineChurn(e, spec, 9)
		if err != nil {
			t.Fatal(err)
		}
		edges := e.Overlay().Matching().Edges()
		if workers == 1 {
			base, baseEdges = recs, edges
			continue
		}
		if !reflect.DeepEqual(recs, base) {
			t.Fatalf("workers=%d: epoch records differ from serial run", workers)
		}
		if !reflect.DeepEqual(edges, baseEdges) {
			t.Fatalf("workers=%d: final matching differs from serial run", workers)
		}
	}
}

// TestEngineStaleEventsAreNoOps: a leave of a node already down and a
// join of a node already up still launch an epoch, but flush checks the
// alive flag and skips them, so that epoch seeds no repair: it examines,
// adds and removes nothing.
func TestEngineStaleEventsAreNoOps(t *testing.T) {
	e := mustEngine(t, 8, 20, 0.4, 2, EngineOptions{})
	for _, step := range []struct {
		at        float64
		kind      UpdateKind
		wantAlive bool
		stale     bool
	}{
		{10, UpdateLeave, false, false},
		{20, UpdateLeave, false, true}, // already down
		{30, UpdateJoin, true, false},
		{40, UpdateJoin, true, true}, // already up
		{50, UpdateLeave, false, false},
	} {
		var err error
		if step.kind == UpdateLeave {
			err = e.SubmitLeave(step.at, 3)
		} else {
			err = e.SubmitJoin(step.at, 3)
		}
		if err != nil {
			t.Fatal(err)
		}
		e.Drain()
		if got := e.Overlay().Alive(3); got != step.wantAlive {
			t.Fatalf("after %v at t=%v: alive %v, want %v", step.kind, step.at, got, step.wantAlive)
		}
		r := e.Records()[len(e.Records())-1]
		if step.stale && r.Stats != (EventStats{}) {
			t.Fatalf("stale %v at t=%v: epoch did work: %+v", step.kind, step.at, r.Stats)
		}
	}
	if err := e.SubmitJoin(e.Now()+100, 3); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	if !e.Overlay().Alive(3) {
		t.Fatal("node 3 did not rejoin")
	}
	assertConverged(t, e)
}

// TestEngineSubmitErrors: submit is the one gate for every update, so
// each row is rejected however it arrives — through a Submit* call or
// a schedule — and leaves the clock, the queue and the records as they
// were. The engine's clock stands at t=5 with that leave's epoch in
// flight when each row runs.
func TestEngineSubmitErrors(t *testing.T) {
	other := randomSystem(t, 10, 10, 0.4, 1)
	schedule := func(ev TimedEvent) func(*Engine) error {
		return func(e *Engine) error {
			_, err := RunSchedule(e, []TimedEvent{ev})
			return err
		}
	}
	for _, row := range []struct {
		name   string
		submit func(*Engine) error
	}{
		{"time travel", func(e *Engine) error { return e.SubmitLeave(1, 1) }},
		{"negative node", func(e *Engine) error { return e.SubmitJoin(6, -1) }},
		{"out-of-range node", func(e *Engine) error { return e.SubmitJoin(6, 10) }},
		{"rerank onto a different graph", func(e *Engine) error { return e.SubmitRerank(7, other, nil) }},
		{"nil rerank system", func(e *Engine) error { return e.SubmitRerank(7, nil, nil) }},
		{"rerank dirty node out of range, epoch in flight", func(e *Engine) error {
			return e.SubmitRerank(5, e.Overlay().System(), []graph.NodeID{1, 99})
		}},
		{"rerank dirty node out of range, engine idle", func(e *Engine) error {
			return e.SubmitRerank(100, e.Overlay().System(), []graph.NodeID{99})
		}},
		{"negative rerank dirty node", func(e *Engine) error {
			return e.SubmitRerank(100, e.Overlay().System(), []graph.NodeID{-1})
		}},
		{"NaN time", func(e *Engine) error { return e.SubmitLeave(math.NaN(), 1) }},
		{"+Inf time", func(e *Engine) error { return e.SubmitJoin(math.Inf(1), 0) }},
		{"unknown kind in a schedule", schedule(TimedEvent{At: 7, Kind: UpdateKind(7), Node: 1})},
		{"nil system in a schedule", schedule(TimedEvent{At: 7, Kind: UpdateRerank})},
		{"foreign system in a schedule", schedule(TimedEvent{At: 7, Kind: UpdateRerank, System: other})},
		{"dirty node out of range in a schedule", func(e *Engine) error {
			return schedule(TimedEvent{At: 7, Kind: UpdateRerank, System: e.Overlay().System(), Dirty: []graph.NodeID{99}})(e)
		}},
		{"NaN time in a schedule", schedule(TimedEvent{At: math.NaN(), Kind: UpdateLeave, Node: 1})},
	} {
		e := mustEngine(t, 9, 10, 0.4, 1, EngineOptions{})
		if err := e.SubmitLeave(5, 0); err != nil {
			t.Fatal(err)
		}
		now, epochs := e.Now(), len(e.Records())
		if err := row.submit(e); err == nil {
			t.Errorf("%s: accepted", row.name)
			continue
		}
		if e.Now() != now || len(e.Records()) != epochs || e.PendingDepth() != 0 {
			t.Errorf("%s: the rejected update moved the engine (clock %v, %d epochs, %d pending)",
				row.name, e.Now(), len(e.Records()), e.PendingDepth())
		}
	}
}

func TestEngineRegionBounded(t *testing.T) {
	// A single leave/join in a quiet overlay repairs a region far
	// smaller than the graph: the frontier stays local.
	e := mustEngine(t, 12, 200, 0.05, 2, EngineOptions{})
	n := e.Overlay().System().Graph().NumNodes()
	if err := e.SubmitLeave(1, 17); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	recs := e.Records()
	last := recs[len(recs)-1]
	if last.Region >= n/2 {
		t.Fatalf("single-event region %d spans half the overlay (n=%d)", last.Region, n)
	}
	assertConverged(t, e)
}

func TestEngineObsAndMetrics(t *testing.T) {
	reg := metrics.New()
	rec := obs.NewRecorder(40)
	e, err := NewEngine(randomSystem(t, 13, 40, 0.25, 2), EngineOptions{
		ShedDepth: 1, Metrics: reg, Obs: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := ChurnSpec{Events: 30, LeaveProb: 0.5, MinAlive: 5, Rate: 16}
	if _, err := RunEngineChurn(e, spec, 3); err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("no dynamic.repair spans recorded")
	}
	kinds := map[string]bool{}
	for _, ev := range rec.Events() {
		kinds[ev.Kind] = true
	}
	if !kinds["dynamic.repair"] {
		t.Fatal("missing dynamic.repair span")
	}
	if e.TotalSheds() > 0 && !kinds["dynamic.shed"] {
		t.Fatal("shed epochs ran without dynamic.shed points")
	}
	if reg.Counter("dynamic_epochs_total", "").Value() != int64(len(e.Records())) {
		t.Fatal("epoch counter out of sync with records")
	}
	if reg.Counter("dynamic_retries_total", "").Value() != e.TotalRetries() {
		t.Fatal("retry counter out of sync")
	}
}

// TestPreemptiveCascadeProperty is the cascade property test: across
// 200 seeds, every preemptive swap must strictly improve — the
// added connection is strictly heavier, in the shared total order,
// than every connection it displaces (the lexicographic potential that
// proves termination) — and the repaired state must equal the fresh
// live-LIC (inherited order) of the surviving subgraph. Two caveats
// keep the naive "each swap raises total weight" phrasing honest: a
// swap displacing one connection at BOTH endpoints trades two edges
// for one, so the increase holds per displaced edge rather than per
// sum (the sorted weight vector is what strictly increases); and on an
// exact weight tie the order falls back to the canonical endpoint
// tiebreak, so single-displacement swaps are checked for numeric
// non-decrease.
func TestPreemptiveCascadeProperty(t *testing.T) {
	defer func() { swapHook = nil }()
	for seed := uint64(0); seed < 200; seed++ {
		var swaps, weightChecked int
		failed := false
		swapHook = func(added satisfaction.WeightKey, dropped []satisfaction.WeightKey) {
			swaps++
			var droppedSum float64
			for _, d := range dropped {
				if !added.Heavier(d) {
					t.Errorf("seed %d: swap added %v not strictly heavier than displaced %v", seed, added, d)
					failed = true
				}
				droppedSum += d.W
			}
			// For a single displacement the strict total-order
			// increase asserted above is a numeric weight increase
			// too — except on exact weight ties, where Heavier falls
			// back to the canonical endpoint tiebreak. Total weight
			// must then never decrease.
			if len(dropped) == 1 {
				weightChecked++
				if added.W < droppedSum {
					t.Errorf("seed %d: single-displacement swap decreased total weight (%v -> %v)",
						seed, droppedSum, added.W)
					failed = true
				}
			}
		}
		// Half the seeds step one epoch per event, half batch the
		// feed: the hook guards the repair loop in both regimes.
		e := mustEngine(t, seed, 35, 0.25, 2, EngineOptions{})
		if seed%2 == 0 {
			spec := ChurnSpec{Events: 30, LeaveProb: 0.5, MinAlive: 2, Rate: 1}
			stepChurn(t, e, spec, seed^0xc0de, func(rec EpochRecord) {
				if !e.Overlay().Matching().Equal(e.Overlay().LiveLICInherited()) {
					t.Fatalf("seed %d epoch %d: post-repair != live-LIC (inherited order)", seed, rec.Epoch)
				}
			})
		} else {
			spec := ChurnSpec{Events: 30, LeaveProb: 0.55, MinAlive: 4, Rate: 4}
			if _, err := RunEngineChurn(e, spec, seed^0xbeef); err != nil {
				t.Fatal(err)
			}
		}
		assertConverged(t, e)
		if failed {
			t.FailNow()
		}
	}
	swapHook = nil
}

// TestEngineStepAllocFree: once its scratch has grown, a full-budget
// engine repairs a leave or a join without allocating — no per-epoch
// push-set map, no boxed heap entries, no partner-list copies, no span
// strings without a recorder. The records slice still doubles now and
// then, so the guard is an average under one allocation per epoch.
func TestEngineStepAllocFree(t *testing.T) {
	const n, warm, runs = 400, 200, 300
	e := mustEngine(t, 5, n, 0.02, 3, EngineOptions{})
	feed, err := ChurnSpec{Events: 800, LeaveProb: 0.55, MinAlive: n / 4, Rate: 1}.Schedule(n, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(feed) < warm+runs+1 {
		t.Fatalf("feed has %d events, want %d", len(feed), warm+runs+1)
	}
	for _, ev := range feed[:warm] {
		if _, err := e.Step(ev); err != nil {
			t.Fatal(err)
		}
	}
	next, examined := warm, 0
	avg := testing.AllocsPerRun(runs, func() {
		rec, err := e.Step(feed[next])
		if err != nil {
			t.Fatal(err)
		}
		next++
		examined += rec.Stats.Examined
	})
	if examined == 0 {
		t.Fatal("the measured epochs repaired nothing")
	}
	if avg >= 1 {
		t.Fatalf("Step allocates %v times per epoch, want under 1", avg)
	}
}
