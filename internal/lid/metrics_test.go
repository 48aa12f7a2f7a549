package lid

import (
	"reflect"
	"testing"

	"overlaymatch/internal/gen"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/pref"
	"overlaymatch/internal/rng"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/transport"
)

// TestMetricsZeroImpact: attaching a metrics sink must not change the
// outcome in any observable way — same matching, same Stats, bit for
// bit. Observability has to be free of behavioural side effects or
// every experiment table becomes suspect.
func TestMetricsZeroImpact(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		src := rng.New(seed)
		g := gen.GNP(src, 40, 0.2)
		s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(3))
		if err != nil {
			t.Fatal(err)
		}
		tbl := satisfaction.NewTable(s)

		plain, err := RunEvent(s, tbl, simnet.Options{
			Seed: seed, Latency: simnet.ExponentialLatency(4),
		})
		if err != nil {
			t.Fatal(err)
		}
		sink := metrics.New()
		instrumented, err := Run(s, tbl, simnet.Event(simnet.Options{
			Seed: seed, Latency: simnet.ExponentialLatency(4),
		}), RunOptions{Metrics: sink})
		if err != nil {
			t.Fatal(err)
		}

		if !plain.Matching.Equal(instrumented.Matching) {
			t.Fatalf("seed %d: metrics changed the matching", seed)
		}
		if !reflect.DeepEqual(plain.Stats, instrumented.Stats) {
			t.Fatalf("seed %d: metrics changed Stats:\n%+v\nvs\n%+v", seed, plain.Stats, instrumented.Stats)
		}
		if plain.PropMessages != instrumented.PropMessages || plain.RejMessages != instrumented.RejMessages {
			t.Fatalf("seed %d: metrics changed message breakdown", seed)
		}

		// The sink must hold both the simnet-level merge and the
		// lid-level instruments, agreeing with Stats.
		if got := sink.Counter("lid_prop_total", "").Value(); int(got) != instrumented.PropMessages {
			t.Fatalf("sink lid_prop_total = %d, want %d", got, instrumented.PropMessages)
		}
		if got := sink.Counter("lid_locked_edges_total", "").Value(); int(got) != instrumented.Matching.Size() {
			t.Fatalf("sink lid_locked_edges_total = %d, want %d", got, instrumented.Matching.Size())
		}
		if got := sink.Counter("simnet_deliveries_total", "").Value(); int(got) != instrumented.Stats.Deliveries {
			t.Fatalf("sink simnet_deliveries_total = %d, want %d", got, instrumented.Stats.Deliveries)
		}
	}
}

// TestGoroutineMetricsSink: the goroutine runtime feeds the one sink
// given in RunOptions.Metrics — the cluster's wire counters, under the
// shared simnet_* names, next to lid's.
func TestGoroutineMetricsSink(t *testing.T) {
	src := rng.New(9)
	g := gen.GNP(src, 20, 0.3)
	s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTable(s)
	sink := metrics.New()
	res, err := Run(s, tbl, transport.Memory(transport.ClusterConfig{}), RunOptions{Metrics: sink})
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.Counter("simnet_deliveries_total", "").Value(); int(got) != res.Stats.Deliveries {
		t.Fatalf("sink deliveries = %d, want %d", got, res.Stats.Deliveries)
	}
	if got := sink.Counter("lid_runs_total", "").Value(); got != 1 {
		t.Fatalf("lid_runs_total = %d, want 1", got)
	}
}

// TestSharedSinkAcrossRuntimes: one sink shared by an event run and
// two Cluster runs of different sizes adds every count and never sees
// a per-node vector, whose size differs from run to run.
func TestSharedSinkAcrossRuntimes(t *testing.T) {
	sink := metrics.New()
	var deliveries int
	kinds := map[string]int{}
	for i, run := range []struct {
		n  int
		rt simnet.Runtime
	}{
		{16, simnet.Event(simnet.Options{Seed: 1})},
		{12, transport.Memory(transport.ClusterConfig{})},
		{20, transport.Memory(transport.ClusterConfig{})},
	} {
		s := randomSystem(t, uint64(i+1), run.n, 0.3, 2)
		res, err := Run(s, satisfaction.NewTable(s), run.rt, RunOptions{Metrics: sink})
		if err != nil {
			t.Fatal(err)
		}
		deliveries += res.Stats.Deliveries
		for k, v := range res.Stats.SentByKind {
			kinds[k] += v
		}
	}
	if got := sink.Counter("simnet_deliveries_total", "").Value(); got != int64(deliveries) {
		t.Fatalf("sink deliveries = %d, runs say %d", got, deliveries)
	}
	for k, v := range kinds {
		if got := sink.Family("simnet_sent_total", "", "kind").Value(k); got != int64(v) {
			t.Fatalf("sink %s sends = %d, runs say %d", k, got, v)
		}
	}
	if got := sink.Counter("lid_runs_total", "").Value(); got != 3 {
		t.Fatalf("lid_runs_total = %d, want 3", got)
	}
	for _, smp := range sink.Snapshot().Samples {
		if smp.Kind == metrics.KindVector {
			t.Fatalf("per-node vector %s reached the shared sink", smp.Name)
		}
	}
}
