package dynamic

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestEngineRecordsPinned pins the engine's observable output on fixed
// feeds: a digest of every EpochRecord field (clock, batch, retries,
// rounds, truncation, shedding, region, examined/added/removed, the
// deferred bound, measured blocking edges) plus the final matching's
// edges, under each repair budget. The feeds mix batched leaves and
// joins, two reranks (one cutting some quotas to 1 and reversing some
// lists, one restoring the base system), a stepped tail of one epoch
// per event, and a final Heal. Repair may be rewritten for speed, never for output: the same
// edges must be examined in the same order, so any drift in candidate
// order, dedupe, preemption or parking changes a digest here.
func TestEngineRecordsPinned(t *testing.T) {
	configs := []struct {
		name string
		opts EngineOptions
	}{
		{"full", EngineOptions{}},
		{"k1", EngineOptions{RepairRounds: 1}},
		{"shed2", EngineOptions{ShedDepth: 2}},
		{"complete", EngineOptions{CompleteOnly: true}},
		{"stability", EngineOptions{MeasureStability: true}},
		// Truncated and completion-only epochs leave blocking edges,
		// so these two rows pin BlockingEdges on nonzero counts.
		{"stability-k1", EngineOptions{RepairRounds: 1, MeasureStability: true}},
		{"stability-complete", EngineOptions{CompleteOnly: true, MeasureStability: true}},
	}
	instances := []struct {
		seed uint64
		n    int
		p    float64
		b    int
		want map[string]uint64
	}{
		{77, 90, 0.08, 2, map[string]uint64{
			"full": 0xd4d0e136804ea152, "k1": 0xc32b115140a88e73,
			"shed2": 0x7a16c5634754e4a9, "complete": 0x6eea833c87c2437c,
			"stability": 0xc31e48f6ef32f7ac, "stability-k1": 0xcb9dae1979106a9c,
			"stability-complete": 0x64f02470429277c7,
		}},
		{78, 300, 0.03, 3, map[string]uint64{
			"full": 0x314bf9a065694c7d, "k1": 0x013a3ea856d5073b,
			"shed2": 0x376304a28ad827d2, "complete": 0x7bf60ce362ef6f6f,
			"stability": 0x74fb1bbf4d1646d7, "stability-k1": 0x0c6f1a4dbeca5f97,
			"stability-complete": 0xd85c4f11ab66bd7a,
		}},
	}
	for _, in := range instances {
		base := randomSystem(t, in.seed, in.n, in.p, in.b)
		cut, dirty := partialRerank(t, base)
		feed, err := ChurnSpec{Events: 160, LeaveProb: 0.55, MinAlive: in.n / 4, Rate: 0.6}.Schedule(in.n, in.seed)
		if err != nil {
			t.Fatal(err)
		}
		feed = MergeSchedules(feed, []TimedEvent{
			{At: 8, Kind: UpdateRerank, System: cut, Dirty: dirty},
			{At: 20, Kind: UpdateRerank, System: base, Dirty: dirty},
		})
		tail, err := ChurnSpec{Events: 40, LeaveProb: 0.5, MinAlive: in.n / 4, Rate: 1}.Schedule(in.n, in.seed+1)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range configs {
			e, err := NewEngine(base, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunSchedule(e, feed); err != nil {
				t.Fatal(err)
			}
			for _, ev := range tail {
				if _, err := e.Step(ev); err != nil {
					t.Fatal(err)
				}
			}
			e.Heal()
			h := fnv.New64a()
			for _, r := range e.Records() {
				fmt.Fprintf(h, "%+v\n", r)
			}
			fmt.Fprintf(h, "deferred=%d retries=%d sheds=%d\n", e.DeferredBound(), e.TotalRetries(), e.TotalSheds())
			for _, eg := range e.Overlay().Matching().Edges() {
				fmt.Fprintf(h, "%v\n", eg)
			}
			if got := h.Sum64(); got != in.want[cfg.name] {
				t.Errorf("seed %d %s: digest %#x over %d epochs, want %#x",
					in.seed, cfg.name, got, len(e.Records()), in.want[cfg.name])
			}
		}
	}
}
