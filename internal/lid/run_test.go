package lid

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/matching"
	"overlaymatch/internal/metrics"
	"overlaymatch/internal/obs"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
	"overlaymatch/internal/transport"
)

// TestRunMatrix runs LID through Run on every runtime under every
// stack: each combination must lock exactly the LIC matching, the
// result's layers must be present exactly when stacked, and the run's
// one sink, handed over only as RunOptions.Metrics, must hold the
// run's Stats under the simnet_* names every runtime shares, with
// bytes in real encoded frames: a LID message costs its frame on every
// runtime. Bare LID does not run on loopback sockets, which lose
// datagrams.
func TestRunMatrix(t *testing.T) {
	s := randomSystem(t, 8, 16, 0.35, 2)
	tbl := satisfaction.NewTable(s)
	want := matching.LIC(s, tbl)
	frameLen := map[string]int64{}
	for _, m := range []Msg{propMsg, rejMsg} {
		f, err := simnet.EncodeFrame(m)
		if err != nil {
			t.Fatal(err)
		}
		frameLen[m.Kind()] = int64(len(f))
	}
	runtimes := []struct {
		name string
		rt   func() simnet.Runtime
		bare bool
	}{
		{"event", func() simnet.Runtime {
			return simnet.Event(simnet.Options{Seed: 3, Latency: simnet.ExponentialLatency(2)})
		}, true},
		{"memory", func() simnet.Runtime { return transport.Memory(transport.ClusterConfig{Timeout: 30 * time.Second}) }, true},
		{"loopback", func() simnet.Runtime { return transport.Loopback(transport.ClusterConfig{Timeout: 30 * time.Second}) }, false},
	}
	rel := reliable.Config{RTO: 40}
	det := detector.Config{Interval: 2, Ticks: 8} // a short heartbeat budget keeps the wall-clock runs fast
	stacks := []struct {
		name string
		spec stack.Spec
	}{
		{"bare", stack.Spec{}},
		{"reliable", stack.Spec{Reliable: rel}},
		{"reliable+detector", stack.Spec{Reliable: rel, Detector: det}},
	}
	for _, r := range runtimes {
		for _, st := range stacks {
			if st.name == "bare" && !r.bare {
				continue
			}
			t.Run(r.name+"/"+st.name, func(t *testing.T) {
				sink := metrics.New()
				res, err := Run(s, tbl, r.rt(), RunOptions{Stack: st.spec, Metrics: sink})
				if err != nil {
					t.Fatal(err)
				}
				checkSinkMatchesStats(t, sink, res.Stats)
				if st.name == "bare" {
					for kind, size := range frameLen {
						sent := sink.Family("simnet_sent_total", "", "kind").Value(kind)
						if got := sink.Family("simnet_sent_bytes_by_kind", "", "kind").Value(kind); sent == 0 || got != sent*size {
							t.Fatalf("%d %s sends billed %d bytes, want %d-byte frames", sent, kind, got, size)
						}
					}
				}
				if got := sink.Counter("lid_runs_total", "").Value(); got != 1 {
					t.Fatalf("lid_runs_total = %d, want 1", got)
				}
				if !res.Matching.Equal(want) {
					t.Fatal("LID != LIC")
				}
				if got, stacked := res.Layers.Endpoints != nil, st.spec.Reliable.RTO != 0; got != stacked {
					t.Fatalf("reliable endpoints present = %v, stacked = %v", got, stacked)
				}
				if got, stacked := res.Layers.Monitors != nil, st.spec.Detector.Enabled(); got != stacked {
					t.Fatalf("detector monitors present = %v, stacked = %v", got, stacked)
				}
			})
		}
	}
}

// TestClusterRuntimesRejectHooks: a Cluster honours neither the prober
// nor the admitter, so Run fails with an error naming the hook before
// any node starts — no Init ran, and nothing reached the run's sink:
// the prober registers its series only once it samples.
func TestClusterRuntimesRejectHooks(t *testing.T) {
	s := randomSystem(t, 2, 12, 0.4, 2)
	tbl := satisfaction.NewTable(s)
	hooks := []struct {
		name string
		opts RunOptions
		want string
	}{
		{"greedy", RunOptions{Scheduler: SchedulerSpec{Kind: SchedGreedy}}, "admission"},
		{"probe", RunOptions{ProbeInterval: 1}, "stability probes"},
	}
	for _, wire := range []struct {
		name string
		rt   func(transport.ClusterConfig) simnet.Runtime
	}{{"memory", transport.Memory}, {"loopback", transport.Loopback}} {
		for _, h := range hooks {
			t.Run(wire.name+"/"+h.name, func(t *testing.T) {
				reg := metrics.New()
				opts := h.opts
				opts.Metrics = reg
				res, err := Run(s, tbl, wire.rt(transport.ClusterConfig{}), opts)
				if err == nil || !strings.Contains(err.Error(), h.want) {
					t.Fatalf("error %v does not name %q", err, h.want)
				}
				if res.Stats.TotalSent() != 0 || res.Matching != nil {
					t.Fatalf("the rejected run did work: %+v", res.Stats)
				}
				for _, smp := range reg.Snapshot().Samples {
					t.Errorf("the rejected run published %s", smp.Name)
				}
			})
		}
	}
}

// TestEventRejectsPresetHooks: simnet.Event refuses options that
// already carry an Admitter, the one hook simnet.Options keeps for
// Runners built by hand, so Run never replaces a hook silently.
func TestEventRejectsPresetHooks(t *testing.T) {
	s := randomSystem(t, 4, 10, 0.4, 2)
	tbl := satisfaction.NewTable(s)
	t.Run("admitter", func(t *testing.T) {
		opts := simnet.Options{Admitter: NewGreedyAdmitter(s, tbl, NewNodes(s, tbl), SchedulerSpec{Kind: SchedGreedy})}
		if _, err := Run(s, tbl, simnet.Event(opts), RunOptions{}); err == nil {
			t.Fatal("Event accepted options with a preset hook")
		}
	})
}

// TestEventRuntimeReusable: one simnet.Event Runtime serves several
// runs that each bring their own hooks — greedy admission, a prober
// and a sink — and equal runs give equal results.
func TestEventRuntimeReusable(t *testing.T) {
	s := randomSystem(t, 6, 20, 0.3, 2)
	tbl := satisfaction.NewTable(s)
	rt := simnet.Event(simnet.Options{Seed: 3})
	var first Result
	for i := 0; i < 2; i++ {
		sink := metrics.New()
		res, err := Run(s, tbl, rt, RunOptions{Scheduler: SchedulerSpec{Kind: SchedGreedy}, ProbeInterval: 1, Metrics: sink})
		if err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		checkSinkMatchesStats(t, sink, res.Stats)
		if sink.Counter("simnet_admission_batches_total", "").Value() == 0 || len(res.Prober.Curve()) == 0 {
			t.Fatalf("run %d lost a hook", i+1)
		}
		if i == 0 {
			first = res
		} else if !reflect.DeepEqual(res.Stats, first.Stats) || !res.Matching.Equal(first.Matching) {
			t.Fatal("the second run on one Runtime differs from the first")
		}
	}
}

// checkSinkMatchesStats asserts that the runtime counters a run merged
// into its sink are the run's Stats.
func checkSinkMatchesStats(t *testing.T, sink *metrics.Registry, st simnet.Stats) {
	t.Helper()
	for name, want := range map[string]int{
		"simnet_deliveries_total":     st.Deliveries,
		"simnet_timers_fired_total":   st.TimersFired,
		"simnet_timers_stopped_total": st.TimersStopped,
		"simnet_dropped_total":        st.Dropped,
	} {
		if got := sink.Counter(name, "").Value(); got != int64(want) {
			t.Errorf("%s = %d, stats say %d", name, got, want)
		}
	}
	kinds := map[string]int{}
	for k, v := range sink.Family("simnet_sent_total", "", "kind").Counts() {
		kinds[k] = int(v)
	}
	if !reflect.DeepEqual(kinds, st.SentByKind) {
		t.Errorf("simnet_sent_total %v, stats say %v", kinds, st.SentByKind)
	}
	bytes := sink.Family("simnet_sent_bytes_by_kind", "", "kind").Counts()
	if len(bytes) != len(kinds) {
		t.Errorf("bytes by kind %v for sends by kind %v", bytes, kinds)
	}
	for k, n := range kinds {
		if bytes[k] < int64(n) {
			t.Errorf("%d %s sends billed %d bytes", n, k, bytes[k])
		}
	}
}

// TestRunPublishesSummaryOnFailure: the rounds-to-ε summary reaches the
// registry even when the run fails, so a non-convergent run leaves an
// explicit gauge rather than an absent one.
func TestRunPublishesSummaryOnFailure(t *testing.T) {
	s := randomSystem(t, 5, 20, 0.3, 2)
	tbl := satisfaction.NewTable(s)
	reg := metrics.New()
	res, err := Run(s, tbl, simnet.Event(simnet.Options{Seed: 1, MaxDeliveries: 5}), RunOptions{ProbeInterval: 1, Metrics: reg})
	if err == nil {
		t.Fatal("a five-delivery budget did not stop the run")
	}
	if res.Prober == nil {
		t.Fatal("failed run returned no prober")
	}
	for k, v := range res.Prober.RoundsToEps(nil) {
		if g := reg.Gauge(obs.SummaryPrefix+k, "").Value(); g != v {
			t.Fatalf("gauge %s = %v, want %v", k, g, v)
		}
	}
	if got := reg.Counter("lid_runs_total", "").Value(); got != 0 {
		t.Fatalf("failed run counted as completed: lid_runs_total = %d", got)
	}
}
