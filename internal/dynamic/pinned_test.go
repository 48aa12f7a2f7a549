package dynamic

import (
	"fmt"
	"hash/fnv"
	"testing"

	"overlaymatch/internal/graph"
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
			"full": 0xd646edea7c48d710, "k1": 0x304ef083a886e089,
			"shed2": 0xb0ef71c5d7c7cef9, "complete": 0x0f11175f2a21ee16,
			"stability": 0xb7900b6fcc1d1e4b, "stability-k1": 0x4607ea852ad95ff2,
			"stability-complete": 0x32c72781d3ad93ae,
		}},
		{78, 300, 0.03, 3, map[string]uint64{
			"full": 0x9c298044ce581f49, "k1": 0xa65286ffa872effb,
			"shed2": 0x837209764a6075a3, "complete": 0x547c573e0b5c15b3,
			"stability": 0x21cd7dd0873d5603, "stability-k1": 0x222404b3f4976af4,
			"stability-complete": 0x57556817785c0019,
		}},
	}
	for _, in := range instances {
		base := randomSystem(t, in.seed, in.n, in.p, in.b)
		var dirty []graph.NodeID
		cut := rebuilt(t, base, func(lists [][]graph.NodeID, quotas []int) {
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
