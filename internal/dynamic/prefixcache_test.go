package dynamic

import (
	"reflect"
	"testing"
)

// TestEnginePrefixCacheBitIdentical is the exactness proof of the
// weight-list-prefix cache: under shed-heavy churn (the only consumer
// of the cached scan) an engine with the cache must produce the same
// epoch records — rounds, examined counts, added/removed edges,
// deferred bounds — and the same final matching as one without it,
// while actually skipping work.
func TestEnginePrefixCacheBitIdentical(t *testing.T) {
	var totalSkipped int64
	for seed := uint64(0); seed < 12; seed++ {
		run := func(disable bool) *Engine {
			e := mustEngine(t, seed, 50, 0.25, 2, EngineOptions{
				ShedDepth:          1, // every multi-update epoch sheds
				RepairRounds:       2,
				MeasureStability:   true,
				disablePrefixCache: disable,
			})
			// Low rate spreads the events over many epochs so nodes are
			// re-scanned across sheds — the regime the cache exists for.
			spec := ChurnSpec{Events: 600, LeaveProb: 0.5, MinAlive: 5, Rate: 2}
			if _, err := RunEngineChurn(e, spec, seed^0xcafe); err != nil {
				t.Fatal(err)
			}
			return e
		}
		cached, plain := run(false), run(true)
		if !reflect.DeepEqual(cached.Records(), plain.Records()) {
			t.Fatalf("seed %d: epoch records diverge with the prefix cache", seed)
		}
		if !cached.Overlay().Matching().Equal(plain.Overlay().Matching()) {
			t.Fatalf("seed %d: final matching diverges with the prefix cache", seed)
		}
		if err := cached.Overlay().Validate(); err != nil {
			t.Fatalf("seed %d: cached overlay invalid: %v", seed, err)
		}
		if cached.cache != nil {
			totalSkipped += cached.cache.SkippedTotal()
		}
	}
	if totalSkipped == 0 {
		t.Fatal("the cache never skipped an entry across 12 shed-heavy runs — the equivalence test is vacuous")
	}
	t.Logf("prefix cache skipped %d weight-list entries across the sweep", totalSkipped)
}

// TestEnginePrefixCacheSurvivesDrain: after churn stops, draining to
// quiescence (full-budget epochs use the uncached bounded path) still
// converges to the live LIC — the cache never leaks staleness into the
// final state.
func TestEnginePrefixCacheSurvivesDrain(t *testing.T) {
	for seed := uint64(20); seed < 26; seed++ {
		e := mustEngine(t, seed, 40, 0.3, 3, EngineOptions{ShedDepth: 2, MeasureStability: true})
		spec := ChurnSpec{Events: 50, LeaveProb: 0.6, MinAlive: 4, Rate: 6}
		if _, err := RunEngineChurn(e, spec, seed); err != nil {
			t.Fatal(err)
		}
		e.Heal()
		assertConverged(t, e)
	}
}
