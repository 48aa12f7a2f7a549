package lid

import (
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
// stack: each combination must lock exactly the LIC matching, and the
// result's layers must be present exactly when stacked. Bare LID does
// not run on loopback sockets, which lose datagrams.
func TestRunMatrix(t *testing.T) {
	s := randomSystem(t, 8, 16, 0.35, 2)
	tbl := satisfaction.NewTable(s)
	want := matching.LIC(s, tbl)
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
				res, err := Run(s, tbl, r.rt(), RunOptions{Stack: st.spec})
				if err != nil {
					t.Fatal(err)
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

// TestClusterRuntimesRejectHooks: a Cluster honours neither run hook,
// so Run fails with an error naming the hook before any node starts —
// no Init ran, and the cluster published nothing.
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
				res, err := Run(s, tbl, wire.rt(transport.ClusterConfig{Metrics: reg}), h.opts)
				if err == nil || !strings.Contains(err.Error(), h.want) {
					t.Fatalf("error %v does not name %q", err, h.want)
				}
				if res.Stats.TotalSent() != 0 || res.Matching != nil {
					t.Fatalf("the rejected run did work: %+v", res.Stats)
				}
				if samples := reg.Snapshot().Samples; len(samples) != 0 {
					t.Fatalf("the rejected run published %d metrics", len(samples))
				}
			})
		}
	}
}

// TestEventRejectsPresetHooks: simnet.Event refuses options that
// already carry a Prober or an Admitter, so Run never replaces a hook
// silently.
func TestEventRejectsPresetHooks(t *testing.T) {
	s := randomSystem(t, 4, 10, 0.4, 2)
	tbl := satisfaction.NewTable(s)
	prober := obs.NewProber(metrics.New(), 1, 0, 1, func(float64) obs.StabilitySample { return obs.StabilitySample{} })
	for name, opts := range map[string]simnet.Options{
		"prober":   {Prober: prober},
		"admitter": {Admitter: NewGreedyAdmitter(s, tbl, NewNodes(s, tbl), SchedulerSpec{Kind: SchedGreedy})},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Run(s, tbl, simnet.Event(opts), RunOptions{}); err == nil {
				t.Fatal("Event accepted options with a preset hook")
			}
		})
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
