package faults

import (
	"errors"
	"testing"
	"time"

	"overlaymatch/internal/detector"
	"overlaymatch/internal/dlid"
	"overlaymatch/internal/lid"
	"overlaymatch/internal/reliable"
	"overlaymatch/internal/robust"
	"overlaymatch/internal/satisfaction"
	"overlaymatch/internal/simnet"
	"overlaymatch/internal/stack"
	"overlaymatch/internal/transport"
	"overlaymatch/internal/workload"
)

// TestNoHealCrashQuiesces pins the termination half of the crash-stop
// story: a node silenced forever plus a transport with a *bounded*
// retry budget must still reach global quiescence — the retransmission
// timers drain instead of retrying into eternity — with the loss
// surfaced as abandonment and a LinkDown escalation, never as a hang.
// Both runtimes are exercised: the event runtime in Quiesce mode via
// LIDTrial's bounded-retry path (which must classify the run as
// degraded, not as a violation), and the in-process cluster with the
// timeout-tolerant protocol on top (a Cluster has no quiesce mode, so
// termination there means every node actually halts).
func TestNoHealCrashQuiesces(t *testing.T) {
	w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 20, B: 2, Seed: 9}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	const crashed = 3
	if len(sys.Graph().Neighbors(crashed)) == 0 {
		t.Fatal("workload gave the crash victim no neighbors; pick another seed")
	}
	spec := Spec{Crashes: []Crash{{Start: 0, End: NoHeal, Node: crashed}}}

	t.Run("event", func(t *testing.T) {
		trial := LIDTrial(sys, TrialOptions{Reliable: true, RTO: 20, MaxRetries: 3})
		for seed := uint64(0); seed < 8; seed++ {
			err := runTrial(trial, seed, NewInjector(spec, injectionSeed(seed)))
			var de *DegradedError
			if !errors.As(err, &de) {
				t.Fatalf("seed %d: want degraded quiescence, got %v", seed, err)
			}
			if de.Abandoned == 0 || de.LinkDowns == 0 {
				t.Fatalf("seed %d: degraded without abandonment? %+v", seed, de)
			}
			total := 0
			for _, n := range de.ByPeer {
				total += n
			}
			if total != de.Abandoned {
				t.Fatalf("seed %d: per-peer counts (%d) do not add up to the total (%d)",
					seed, total, de.Abandoned)
			}
		}
	})

	t.Run("goroutine", func(t *testing.T) {
		tbl := satisfaction.NewTable(sys)
		n := sys.Graph().NumNodes()
		handlers := make([]simnet.Handler, n)
		for id := 0; id < n; id++ {
			// Timeout comfortably past rto * (1 + retries) so honest
			// answers beat the reaper.
			handlers[id] = robust.NewTolerantNode(sys, tbl, id, 400)
		}
		eps := reliable.WrapConfig(handlers, reliable.Config{RTO: 20, MaxRetries: 3})
		cluster, err := transport.NewMemoryCluster(n, transport.ClusterConfig{
			Timeout: 60 * time.Second,
			Policy:  NewInjector(spec, injectionSeed(42)),
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cluster.Run(reliable.Handlers(eps)); err != nil {
			t.Fatalf("goroutine runtime did not quiesce: %v", err)
		}
		if reliable.TotalAbandoned(eps) == 0 {
			t.Fatal("no frames abandoned across an unhealed crash")
		}
		if reliable.TotalLinkDowns(eps) == 0 {
			t.Fatal("no LinkDown escalation across an unhealed crash")
		}
	})
}

// TestExploreClassifiesDegraded runs the sweep itself over the
// crash-stop adversary: every trial must land in Degraded — quiesced
// with abandoned frames — and none in Violations, proving the
// termination oracle distinguishes loss-degradation from breakage.
func TestExploreClassifiesDegraded(t *testing.T) {
	w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 16, B: 2, Seed: 9}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Crashes: []Crash{{Start: 0, End: NoHeal, Node: 2}}}
	rep := Explore(ExploreOptions{Spec: spec, BaseSeed: 10, Count: 6},
		LIDTrial(sys, TrialOptions{Reliable: true, RTO: 20, MaxRetries: 3}))
	if len(rep.Violations) != 0 {
		t.Fatalf("crash-stop degradation misreported as violations: %+v", rep.Violations)
	}
	if rep.Degraded != rep.Trials {
		t.Fatalf("only %d/%d trials classified degraded (%s)", rep.Degraded, rep.Trials, rep.Summary())
	}
}

// TestBoundedRetryCapIsViolation: abandonment waives the LIC oracle,
// never the termination guard. A bounded-retry LIDTrial whose run
// abandons frames and then exceeds MaxDeliveries is a plain violation,
// not a *DegradedError: a transport that gives up is supposed to
// quiesce, so a run still going at the cap is the non-termination
// failure the guard exists for.
func TestBoundedRetryCapIsViolation(t *testing.T) {
	w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 20, B: 2, Seed: 9}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	tbl := satisfaction.NewTable(sys)
	spec := Spec{Crashes: []Crash{{Start: 0, End: NoHeal, Node: 3}}}
	const seed = 1
	// run mirrors the trial's run: its latency, its injector stream and
	// its stack, in Quiesce mode as bounded retries require.
	run := func(limit int) (lid.Result, error) {
		return lid.Run(sys, tbl, simnet.Event(simnet.Options{
			Seed:          seed,
			Latency:       simnet.ExponentialLatency(4),
			Policy:        NewInjector(spec, injectionSeed(seed)),
			MaxDeliveries: limit,
			Quiesce:       true,
		}), lid.RunOptions{Stack: stack.Spec{Reliable: reliable.Config{RTO: 20, MaxRetries: 3}}})
	}
	full, err := run(0)
	if err != nil {
		t.Fatalf("uncapped run: %v", err)
	}
	if reliable.TotalAbandoned(full.Layers.Endpoints) == 0 {
		t.Fatal("the unhealed crash abandoned no frames")
	}
	// A cap one below the run's events fires at its last event, after
	// the transport has abandoned frames.
	limit := full.Stats.Deliveries + full.Stats.TimersFired - 1
	capped, err := run(limit)
	if err == nil {
		t.Fatalf("a cap of %d events did not fire", limit)
	}
	if reliable.TotalAbandoned(capped.Layers.Endpoints) == 0 {
		t.Fatal("the capped run abandoned no frames before the cap fired")
	}
	trial := LIDTrial(sys, TrialOptions{Reliable: true, RTO: 20, MaxRetries: 3, MaxDeliveries: limit})
	verr := runTrial(trial, seed, NewInjector(spec, injectionSeed(seed)))
	var de *DegradedError
	if verr == nil || errors.As(verr, &de) {
		t.Fatalf("capped bounded-retry run returned %v, want a plain violation", verr)
	}
}

// TestExploreSelfHealCrashWindows sweeps the full self-healing stack
// (Rematch repair + heartbeat detector) through healing crash windows:
// the detector must carry every trial through suspicion, repair and
// restore without a single structural violation.
func TestExploreSelfHealCrashWindows(t *testing.T) {
	w := workload.Synthetic{Topology: "gnp", Metric: "random", N: 24, B: 2, Seed: 4}
	sys, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Crashes: []Crash{{Start: 40, End: 260, Node: 5}}}
	trial := SelfHealTrial(sys, dlid.SelfHealConfig{
		Mode:  dlid.Rematch,
		Stack: stack.Spec{Detector: detector.Default()},
	}, nil, TrialOptions{Jitter: 0.5})
	rep := Explore(ExploreOptions{Spec: spec, BaseSeed: 1, Count: 8}, trial)
	if len(rep.Violations) != 0 {
		t.Fatalf("self-heal stack violated under crash windows: %+v", rep.Violations)
	}
	// No transport in this stack, so nothing can be abandoned.
	if rep.Degraded != 0 {
		t.Fatalf("transport-free stack reported %d degraded trials", rep.Degraded)
	}
}
