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
		instrumented, err := RunEvent(s, tbl, simnet.Options{
			Seed: seed, Latency: simnet.ExponentialLatency(4), Metrics: sink,
		})
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

// TestGoroutineMetricsSink: the goroutine runtime feeds the sink
// through ClusterConfig.Metrics — the cluster's wire counters next to
// lid's.
func TestGoroutineMetricsSink(t *testing.T) {
	src := rng.New(9)
	g := gen.GNP(src, 20, 0.3)
	s, err := pref.Build(g, pref.NewRandomMetric(src.Split()), pref.UniformQuota(2))
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTable(s)
	sink := metrics.New()
	res, err := Run(s, tbl, transport.Memory(transport.ClusterConfig{Metrics: sink}), RunOptions{Metrics: sink})
	if err != nil {
		t.Fatal(err)
	}
	if got := sink.Counter("transport_frames_delivered_total", "").Value(); int(got) != res.Stats.Deliveries {
		t.Fatalf("sink deliveries = %d, want %d", got, res.Stats.Deliveries)
	}
	if got := sink.Counter("lid_runs_total", "").Value(); got != 1 {
		t.Fatalf("lid_runs_total = %d, want 1", got)
	}
}
