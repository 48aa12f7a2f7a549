package detector_test

// These tests drive LID under the monitor. They live in an external
// test package because lid imports package stack, which imports
// detector.

import (
	"testing"
	"time"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/gen"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
)

// buildLID constructs a small LID workload: nodes, adjacency, system.
func buildLID(tb testing.TB, seed uint64, n int) (*pref.System, *satisfaction.Table, []*lid.Node, [][]int) {
	tb.Helper()
	src := rng.New(seed)
	g := gen.GNP(src, n, 0.3)
	sys, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		tb.Fatal(err)
	}
	tbl := satisfaction.NewTable(sys)
	nodes := lid.NewNodes(sys, tbl)
	adj := make([][]int, g.NumNodes())
	for i := range adj {
		adj[i] = g.Neighbors(i)
	}
	return sys, tbl, nodes, adj
}

// TestZeroFaultAccuracyPin is the detector accuracy pin: on a clean
// network the monitor must never suspect anyone, and the monitored run
// must produce the identical matching to an unmonitored one.
func TestZeroFaultAccuracyPin(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		sys, tbl, nodes, adj := buildLID(t, seed, 24)
		mons := detector.Wrap(lid.Handlers(nodes), adj, detector.Default())
		r := simnet.NewRunner(len(nodes), simnet.Options{
			Seed:    seed,
			Latency: simnet.ExponentialLatency(3),
		})
		stats, err := r.Run(detector.Handlers(mons))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if s := detector.TotalSuspicions(mons); s != 0 {
			t.Fatalf("seed %d: %d false suspicions on a fault-free network", seed, s)
		}
		if detector.TotalRestores(mons) != 0 {
			t.Fatalf("seed %d: restores without suspicions", seed)
		}
		m, err := lid.BuildMatching(nodes)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !m.Equal(matching.LIC(sys, tbl)) {
			t.Fatalf("seed %d: monitored LID diverged from LIC", seed)
		}
		if stats.SentByKind["HB"] == 0 || stats.SentByKind["HB-ACK"] == 0 {
			t.Fatalf("seed %d: heartbeats not flowing (%v)", seed, stats.SentByKind)
		}
	}
}

// TestClusterQuiesces pins the goroutine-runtime path: tick timers
// count as outstanding work, so a bounded tick budget must let the
// in-process cluster terminate (no suspicion assertions — wall-clock
// jitter is real there).
func TestClusterQuiesces(t *testing.T) {
	sys, _, nodes, adj := buildLID(t, 5, 12)
	mons := detector.Wrap(lid.Handlers(nodes), adj, detector.Config{Interval: 3, Ticks: 5})
	c, err := transport.NewMemoryCluster(sys.Graph().NumNodes(), transport.ClusterConfig{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(detector.Handlers(mons)); err != nil {
		t.Fatal(err)
	}
	if _, err := lid.BuildMatching(nodes); err != nil {
		t.Fatal(err)
	}
}

func TestPublishMetrics(t *testing.T) {
	_, _, nodes, adj := buildLID(t, 2, 16)
	mons := detector.Wrap(lid.Handlers(nodes), adj, detector.Config{Interval: 5, Ticks: 10})
	r := simnet.NewRunner(len(nodes), simnet.Options{Seed: 2})
	if _, err := r.Run(detector.Handlers(mons)); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	detector.PublishMetrics(reg, mons)
	detector.PublishMetrics(nil, mons) // nil sink must be a no-op
	var hb int
	for _, m := range mons {
		hb += m.Heartbeats
	}
	if got := int(reg.Counter("detector_heartbeats_total", "").Value()); got != hb {
		t.Fatalf("heartbeat counter %d, monitors say %d", got, hb)
	}
}
