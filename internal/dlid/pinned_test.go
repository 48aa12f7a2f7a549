package dlid

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
)

// TestRunsPinned pins the maintenance protocol's observable output on
// fixed churn feeds: a digest of every node's Proposals, Accepts,
// Declines and Preemptions, the run's sends by kind, its final virtual
// time and the live matching. Complete runs stack nothing; Rematch
// runs stack a heartbeat detector and cut the highest-degree LIC node
// off for a healing window, so suspicions, restores and preemptions
// drive the proposal scans too. Each runs
// under unit and exponential latency. The proposal scans may be
// rewritten, never their output: any change in whom a node proposes
// to, or when, moves a digest here.
func TestRunsPinned(t *testing.T) {
	latencies := []struct {
		name string
		fn   simnet.LatencyFunc
	}{
		{"unit", simnet.UnitLatency},
		{"exp", simnet.ExponentialLatency(0.5)},
	}
	instances := []struct {
		seed uint64
		n    int
		p    float64
		b    int
		want map[string]uint64
	}{
		{31, 30, 0.3, 1, map[string]uint64{
			"complete-unit": 0xeceed1c8e4802d5e, "complete-exp": 0x6a33c04166361e75,
			"rematch-unit": 0x85bfabdfe817573c, "rematch-exp": 0xc1c3eb6a497efdac,
		}},
		{32, 40, 0.2, 2, map[string]uint64{
			"complete-unit": 0xe745728144e6c88b, "complete-exp": 0x517d7791afdd5d30,
			"rematch-unit": 0x72821683bc52e679, "rematch-exp": 0x87ffe18e1b6842bb,
		}},
		{33, 60, 0.15, 3, map[string]uint64{
			"complete-unit": 0xb913b351ab62831d, "complete-exp": 0xd1d9c6669c6a7838,
			"rematch-unit": 0x8b65099d6bfd438f, "rematch-exp": 0x497f54ba65bec298,
		}},
	}
	for _, in := range instances {
		s := randomSystem(t, in.seed, in.n, in.p, in.b)
		tbl := satisfaction.NewTable(s)
		lic := matching.LIC(s, tbl)
		crash := 0
		for i := 1; i < in.n; i++ {
			if lic.DegreeOf(i) > lic.DegreeOf(crash) {
				crash = i
			}
		}
		schedule := Schedule(s, rng.New(in.seed^0x9e37), 16, 40, 0.5, in.n/3)
		for _, lat := range latencies {
			for _, mode := range []string{"complete", "rematch"} {
				opts := simnet.Options{Seed: in.seed, Latency: lat.fn}
				cfg := SelfHealConfig{}
				if mode == "rematch" {
					opts.Policy = cutNode{node: crash, start: 50, end: 230}
					cfg = SelfHealConfig{Mode: Rematch, Stack: stack.Spec{Detector: detector.Default()}}
				}
				res, err := RunSelfHeal(s, tbl, cfg, schedule, opts)
				if err == nil && mode == "rematch" && (res.Resyncs == 0 || res.Preemptions == 0) {
					err = fmt.Errorf("the cut drove %d resyncs and %d preemptions; the pin needs both",
						res.Resyncs, res.Preemptions)
				}
				name := mode + "-" + lat.name
				if err != nil {
					t.Fatalf("seed %d %s: %v", in.seed, name, err)
				}
				h := fnv.New64a()
				for _, nd := range res.Nodes {
					fmt.Fprintf(h, "%d %d %d %d %d\n", nd.id, nd.Proposals, nd.Accepts, nd.Declines, nd.Preemptions)
				}
				kinds := make([]string, 0, len(res.Stats.SentByKind))
				for k := range res.Stats.SentByKind {
					kinds = append(kinds, k)
				}
				sort.Strings(kinds)
				for _, k := range kinds {
					fmt.Fprintf(h, "%s=%d\n", k, res.Stats.SentByKind[k])
				}
				fmt.Fprintf(h, "final=%v\n", res.Stats.FinalTime)
				for _, eg := range res.Live.Edges() {
					fmt.Fprintf(h, "%v\n", eg)
				}
				if got := h.Sum64(); got != in.want[name] {
					t.Errorf("seed %d %s: digest %#x (%d proposals, final time %v), want %#x",
						in.seed, name, got, res.Proposals, res.Stats.FinalTime, in.want[name])
				}
			}
		}
	}
}
